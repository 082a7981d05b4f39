import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhjc.cli import main

PARAMS = {"omega": 0.9, "Omega": 1.0, "g_rel": 0.1, "kappa": 0.5, "gamma": 0.2, "Gamma": 0.1}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PARAMS))
    return str(path)


def test_eigen_happy_path(params_file, capsys):
    assert main(["eigen", "--params", params_file, "--n", "1", "--eta", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"cUp", "cDown", "energy", "A", "B", "R", "vartheta", "deltaMinus", "deltaPlus"} <= payload.keys()


def test_eigen_vacuum_note(params_file, capsys):
    assert main(["eigen", "--params", params_file, "--n", "0", "--eta", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energy"] == {"re": -0.5, "im": 0.1}
    assert "degenerate" in payload["note"]


def test_eigen_output_is_reproducible(params_file, tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["eigen", "--params", params_file, "--n", "2", "--eta", "1", "--out", str(out_a)])
    main(["eigen", "--params", params_file, "--n", "2", "--eta", "1", "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"omega": 0.9,\n  "Omega": }')
    rc = main(["eigen", "--params", str(bad), "--n", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_flag_is_usage_error(params_file, capsys):
    rc = main(["eigen", "--params", params_file, "--n", "1", "--frobnicate"])
    assert rc == 2


def test_invalid_params_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"omega": 0.9, "Omega": 0.0, "g": 0.1}))
    rc = main(["eigen", "--params", str(bad), "--n", "1"])
    assert rc == 2
    assert "Omega" in capsys.readouterr().err


def test_computation_error_exit_code(tmp_path, capsys):
    # exceptional point: branch decomposition undefined
    ep = tmp_path / "ep.json"
    ep.write_text(json.dumps({"omega": 0.9, "Omega": 1.0, "g": 0.1,
                              "kappa": 0.5, "gamma": 0.3, "Gamma": 0.05}))
    rc = main(["texture", "--params", str(ep), "--n", "1"])
    assert rc == 1
    assert "exceptional" in capsys.readouterr().err


def test_texture_csv(params_file, tmp_path):
    out = tmp_path / "texture.csv"
    rc = main(["texture", "--params", params_file, "--n", "3", "--eta", "-1",
               "--grid-points", "101", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,sx,sy,sz"
    assert len(lines) == 102


def test_texture_json(params_file, capsys):
    rc = main(["texture", "--params", params_file, "--n", "0", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["x"]) == 801
    assert max(payload["sz"], key=abs) == 0.0


def test_winding_report(params_file, capsys):
    rc = main(["winding", "--params", params_file, "--n", "3", "--eta", "-1",
               "--plane", "both", "--method", "both"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    zx, yx = payload["planes"]["zx"], payload["planes"]["yx"]
    assert abs(zx["node_sum"]) == abs(yx["node_sum"]) == 3
    assert zx["agreement"] and yx["agreement"]


def test_winding_methods_filter(params_file, capsys):
    rc = main(["winding", "--params", params_file, "--n", "1", "--plane", "zx",
               "--method", "nodes"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "integral" not in payload["planes"]["zx"]


def test_boundaries_families(params_file, capsys):
    rc = main(["boundaries", "--params", params_file, "--n", "2",
               "--solve-for", "Gamma", "--family", "all"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["family"] for p in payload] == ["R", "GR", "SI"]
    gr = payload[1]
    assert gr["value"] == pytest.approx(0.01581, abs=5e-6)


def test_sweep_command(params_file, tmp_path):
    spec = {
        "params": PARAMS,
        "axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": 3}],
        "levels": [{"n": 1, "eta": -1}],
        "observables": ["thetaT", "nWzx"],
        "overlays": ["GR"],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "result.csv"
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    assert out.exists() and (tmp_path / "result.csv.overlay.GR.csv").exists()


def test_verify_quick(capsys):
    rc = main(["verify", "--quick", "--draws", "12", "--n-max", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 9


@pytest.mark.parametrize("flags, message", [
    (["--n-max", "201"], "n_max must be in [1, 200]"),
    (["--n-max", "0"], "n_max must be in [1, 200]"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--draws", "0"], "draws must be >= 1"),
    (["--draws", "-3"], "draws must be >= 1"),
])
def test_verify_flags_outside_their_domain_are_usage_errors(flags, message, capsys):
    assert message in _one_line_usage_error(main(["verify", *flags]), capsys)


def test_cli_processes_import_only_what_their_subcommand_uses():
    # a fresh process imports (and, without bytecode caches, compiles) every
    # module it loads: eigen and boundaries are closed forms and need no
    # numpy, no oscillator subcommand needs sweep or verify, and np.unique
    # would import numpy.ma, about 17 ms
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cases = {
        "eigen --n 200": ("numpy", "nhjc.sweep", "nhjc.verify", "nhjc.topology", "nhjc.texture"),
        "boundaries --n 3 --solve-for Gamma": ("numpy", "nhjc.sweep", "nhjc.verify", "nhjc.topology"),
        "texture --n 200": ("nhjc.sweep", "nhjc.verify", "nhjc.topology"),
        "winding --n 3": ("numpy.ma", "nhjc.sweep", "nhjc.verify"),
    }
    for command, absent in cases.items():
        argv = command.split() + ["--params", "configs/reference.json"]
        code = ("import sys; from nhjc.cli import main; "
                f"assert main({argv!r}) == 0; "
                f"print(sorted(set({absent!r}) & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]", command


def test_version(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "nhjc" in capsys.readouterr().out


def test_missing_file_is_usage_error(capsys):
    rc = main(["eigen", "--params", "/nonexistent/p.json", "--n", "1"])
    assert rc == 2


def _one_line_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


def test_non_numeric_parameter_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(PARAMS, omega="abc")))
    rc = main(["eigen", "--params", str(bad), "--n", "1"])
    assert "'omega'" in _one_line_usage_error(rc, capsys)


def test_non_numeric_sweep_count_is_usage_error(tmp_path, capsys):
    spec = {
        "params": PARAMS,
        "axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": "x"}],
        "levels": [{"n": 1, "eta": -1}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_texture_grid_points_below_two_is_usage_error(params_file, points, capsys):
    rc = main(["texture", "--params", params_file, "--n", "2", "--grid-points", points])
    assert "--grid-points" in _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("command", ["winding", "texture"])
def test_level_above_validity_domain_is_usage_error(params_file, command, capsys):
    rc = main([command, "--params", params_file, "--n", "250"])
    assert "--n" in _one_line_usage_error(rc, capsys)


def _sweep_spec_error(tmp_path, capsys, **extra):
    spec = {
        "params": PARAMS,
        "axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": 2}],
        "levels": [{"n": 1, "eta": -1}],
        "observables": ["nWzx"],
    }
    spec.update(extra)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")])
    return _one_line_usage_error(rc, capsys)


def test_sweep_level_above_validity_domain_is_usage_error(tmp_path, capsys):
    assert "200" in _sweep_spec_error(tmp_path, capsys, levels=[{"n": 250, "eta": -1}])


@pytest.mark.parametrize("volumetric", ["false", 0, 1, "yes"])
def test_sweep_non_boolean_volumetric_is_usage_error(tmp_path, capsys, volumetric):
    assert "volumetric" in _sweep_spec_error(tmp_path, capsys, volumetric=volumetric)


@pytest.mark.parametrize("fraction", ["nan", "inf", 1.5, -0.1])
def test_sweep_spot_check_fraction_outside_unit_interval_is_usage_error(tmp_path, capsys, fraction):
    assert "spot_check_fraction" in _sweep_spec_error(tmp_path, capsys, spot_check_fraction=fraction)


def test_winding_without_coupling_is_computation_error(tmp_path, capsys):
    # g~ = 0: the branch with C_up != 0 has C_down = 0, so no finite ratio
    # |C_up|/|C_down| places sigma_x nodes
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps(dict(PARAMS, g_rel=0.0, Gamma=0.0)))
    rc = main(["winding", "--params", str(path), "--n", "2", "--eta", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "sigma_x" in err


def test_sweep_error_names_the_grid_point(tmp_path, capsys, monkeypatch):
    import numpy as np

    import nhjc.texture
    from nhjc import LevelIndex, eigen_solution, params_from_dict

    spec = {
        "params": PARAMS,
        "axes": [{"name": "Gamma", "min": 0.01, "max": 0.05, "count": 3},
                 {"name": "g", "min": 0.01, "max": 0.03, "count": 4}],
        "levels": [{"n": 2, "eta": -1}],
        "observables": ["thetaT", "nWzx"],
    }
    # break the sigma_x nodes of one point, found by its coefficient ratio
    gamma, g = float(np.linspace(0.01, 0.05, 3)[1]), float(np.linspace(0.01, 0.03, 4)[2])
    point = params_from_dict(PARAMS).with_value("Gamma", gamma).with_value("g", g)
    sol = eigen_solution(point, LevelIndex(2, -1))
    rho = abs(sol.c_up) / abs(sol.c_down)
    original = nhjc.texture.ratio_roots
    hit = []

    def broken(n, c):
        x = original(n, c)
        rows = np.flatnonzero(np.asarray(c)[..., 1] == rho)
        hit.extend(rows.tolist())
        x[rows] = x[rows][..., ::-1]  # out of order: a NodeCountError at this point only
        return x

    monkeypatch.setattr(nhjc.texture, "ratio_roots", broken)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert hit and rc == 1
    assert err.startswith("error: sigma_x node refinement") and err.count("\n") == 1
    assert f"at Gamma={gamma!r}, g={g!r}, n=2, eta=-1" in err


_VALID_PARAMS = {"omega": 0.9, "Omega": 1.0, "g": 0.05, "kappa": 0.5, "gamma": 0.2, "Gamma": 0.1}
_NOT_A_NUMBER = (st.none() | st.booleans() | st.text(max_size=4) | st.lists(st.integers(), max_size=2)
                 | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
                 | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400]))


@st.composite
def _malformed_params_files(draw) -> bytes:
    """The bytes of a parameter file that breaks the schema in one way."""
    data = dict(_VALID_PARAMS)
    kind = draw(st.sampled_from(["value", "missing", "extra", "not-json", "not-an-object"]))
    if kind == "value":
        data[draw(st.sampled_from(sorted(data)))] = draw(_NOT_A_NUMBER)
    elif kind == "missing":
        del data[draw(st.sampled_from(["omega", "Omega", "g"]))]
    elif kind == "extra":
        data[draw(st.sampled_from(["g_rel"]) | st.text(max_size=6).filter(lambda k: k not in data))] = 0.1
    elif kind == "not-json":
        text = json.dumps(data)
        return draw(st.sampled_from([text[:i] for i in range(len(text))]).map(str.encode)
                    | st.binary(max_size=12))
    else:
        data = draw(st.lists(st.floats(), max_size=2) | st.floats() | st.text(max_size=4) | st.none())
    return json.dumps(data).encode()


@given(content=_malformed_params_files(), command=st.sampled_from(["eigen", "boundaries"]))
@example(content=b'{"omega": "0.9", "Omega": 1.0, "g": 0.05}', command="eigen")
@example(content=b'{"omega": 0.9, "Omega": true, "g": 0.05}', command="boundaries")
@example(content=b'{"omega": 0.9, "Omega": 1.0, "g": 0.05, "x\\ny": 1}', command="eigen")
@example(content=b"\xff\xfe{}", command="boundaries")
@example(content=b'{"omega": 0.9, "Omega": 1%s, "g": 0.05}' % (b"0" * 5000), command="eigen")
@settings(max_examples=300, deadline=None)
def test_malformed_params_files_are_one_line_usage_errors(tmp_path_factory, content, command):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_bytes(content)
    argv = [command, "--params", str(path), "--n", "2"]
    if command == "boundaries":
        argv += ["--solve-for", "Gamma"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc == 2 and out.getvalue() == "", message
    assert message.startswith("error: ") and message.count("\n") == 1 and "Traceback" not in message


@given(n=st.integers(max_value=-1) | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024),
       command=st.sampled_from(["eigen", "boundaries"]))
@example(n=10 ** 320, command="eigen")
@example(n=10 ** 320, command="boundaries")
@example(n=-1, command="boundaries")
@settings(max_examples=100, deadline=None)
def test_negative_levels_and_levels_past_float_range_are_one_line_usage_errors(tmp_path_factory, n, command):
    # a level past float range ended in an OverflowError traceback
    path = tmp_path_factory.getbasetemp() / "params.json"
    path.write_text(json.dumps(PARAMS))
    argv = [command, "--params", str(path), "--n", str(n)]
    if command == "boundaries":
        argv += ["--solve-for", "Gamma"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc == 2 and out.getvalue() == "", message
    assert message.startswith("error: ") and message.count("\n") == 1 and "Traceback" not in message


@pytest.mark.parametrize("axis, message", [
    ('{"name": "Gamma", "min": 0.0, "max": 0.1, "count": 1%s}' % ("0" * 5000), "'count' must be an integer"),
    ('{"name": "Gamma", "min": "0.0", "max": 0.1, "count": 3}', "'min' must be a number"),
], ids=["5001-digit count", "string min"])
def test_sweep_spec_numbers_follow_the_parameter_file_rule(tmp_path, capsys, axis, message):
    # a 5 001-digit count ended in a ValueError traceback; a string was read as a number
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"params": %s, "axes": [%s], "levels": [{"n": 1}]}' % (json.dumps(PARAMS), axis))
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")])
    assert message in _one_line_usage_error(rc, capsys)


def _boundaries(tmp_path, capsys, params, family, solve_for="kappa"):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc = main(["boundaries", "--params", str(path), "--n", "1", "--solve-for", solve_for, "--family", family])
    return rc, capsys.readouterr()


_HUGE_R = {"omega": 5e-324, "Omega": 1e-300, "g": 1e10, "kappa": 0.5, "gamma": 0.2, "Gamma": 1e10}
_HUGE_GR = {"omega": 0.9, "Omega": 1.0, "g": 1e10, "kappa": 0.5, "gamma": 0.2, "Gamma": 1e-310}
_HUGE_SI = {"omega": 0.9, "Omega": 1.0, "g": 1e-310, "kappa": 0.5, "gamma": 0.2, "Gamma": 1e10}


@pytest.mark.parametrize("family, params", [("all", _HUGE_R), ("R", _HUGE_R), ("GR", _HUGE_GR), ("SI", _HUGE_SI)])
def test_boundary_values_past_float_range(tmp_path, capsys, family, params):
    # R and GR read validity at a record holding the value, which cannot hold
    # inf; SI reports the value as it is
    rc, captured = _boundaries(tmp_path, capsys, params, family)
    if family == "SI":
        assert rc == 0 and json.loads(captured.out)[0]["value"] == -math.inf
    else:
        assert rc == 2 and captured.err == "error: kappa must be finite, got inf\n"


def test_gapped_reversal_of_a_weak_coupling_keeps_every_level(tmp_path, capsys):
    # (d_kg / 2g)^2 leaves float range: it ended in an OverflowError traceback
    params = {"omega": 0.9, "Omega": 1.0, "g": 1e-200, "kappa": 0.5, "gamma": 0.2, "Gamma": 0.1}
    rc, captured = _boundaries(tmp_path, capsys, params, "GR", "Gamma")
    assert rc == 0
    assert json.loads(captured.out)[0]["validity_detail"].startswith("transition exists for levels n < inf")
