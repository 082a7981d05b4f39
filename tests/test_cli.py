import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhjc.boundaries import SOLVABLE
from nhjc.cli import main
from nhjc.params import N_MAX, PARAM_MAX

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PARAMS = json.loads((CONFIGS / "reference.json").read_text())  # the reference configuration


def _json_file(tmp_path, data, name="params.json") -> Path:
    """The path of a file in tmp_path that holds data as JSON."""
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _sweep(tmp_path, spec) -> int:
    """The exit code of `nhjc sweep` on spec, writing to tmp_path / "out.csv"."""
    return main(["sweep", "--spec", str(_json_file(tmp_path, spec, "spec.json")), "--out", str(tmp_path / "out.csv")])


@pytest.fixture
def params_file():
    return str(CONFIGS / "reference.json")


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
    bad = _json_file(tmp_path, {"omega": 0.9, "Omega": 0.0, "g": 0.1}, "bad.json")
    rc = main(["eigen", "--params", str(bad), "--n", "1"])
    assert rc == 2
    assert "Omega" in capsys.readouterr().err


def test_computation_error_exit_code(tmp_path, capsys):
    # exceptional point: branch decomposition undefined
    ep = _json_file(tmp_path, {"omega": 0.9, "Omega": 1.0, "g": 0.1, "kappa": 0.5, "gamma": 0.3, "Gamma": 0.05})
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


def _winding_payload(argv, capsys):
    assert main(["winding", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_winding_on_a_zero_coefficient_prints_a_null_plane(capsys):
    # Cy = 0 exactly in the Hermitian limit: the yx plane has no winding
    # direction, and it no longer takes the zx report down with it
    nulls = {"plane": "yx", "degenerate": False, "node_sum": None, "integral": None,
             "integral_residual": None, "direction_rule": None, "agreement": None}
    for n in (1, 2, 5, 20, 100):
        for eta in ("1", "-1"):
            argv = ["--params", str(CONFIGS / "hermitian.json"), "--n", str(n), "--eta", eta]
            both = _winding_payload([*argv, "--plane", "both"], capsys)["planes"]
            assert both == {"zx": _winding_payload([*argv, "--plane", "zx"], capsys)["planes"]["zx"],
                            "yx": nulls}
            assert both["zx"]["agreement"] and abs(both["zx"]["node_sum"]) == n
            assert _winding_payload([*argv, "--plane", "yx"], capsys)["planes"] == {"yx": nulls}


@pytest.mark.parametrize("Gamma, n", [(1.0, 1), (1e152, 200)])
def test_winding_within_float_reach_of_an_si_point_prints_a_null_plane(tmp_path, capsys, Gamma, n):
    # Cy is a few ulps off 0 here (|Cy|/scale_Cy ~ 1e-16, inside the sweep's
    # on_boundary band): the yx loop collapses onto the x axis, and its
    # integral ended the call in a misleading "angle step >= pi/2" error
    path = _json_file(tmp_path, {"omega": 0.3, "Omega": 0.3, "g": 1.0, "kappa": 0.3, "gamma": 0.3, "Gamma": Gamma})
    planes = _winding_payload(["--params", str(path), "--n", str(n), "--plane", "both"], capsys)["planes"]
    assert planes["yx"] == {"plane": "yx", "degenerate": False, "node_sum": None, "integral": None,
                            "integral_residual": None, "direction_rule": None, "agreement": None}
    assert planes["zx"]["agreement"] and planes["zx"]["node_sum"] == n


# at n = 100 the outer sigma_x nodes of this point sit at +-27.646, where
# phi_99 and phi_100 are still ~1e-88: the integral needs their shells
FAR_NODES = {"omega": 1.1939340744983995, "Omega": 1.0, "g": 0.011220669585706756,
             "kappa": 0.29512441550134244, "gamma": 0.7349112807908708, "Gamma": 0.005}


def test_winding_samples_the_shells_of_nodes_far_out_in_the_tail(tmp_path, capsys):
    path = _json_file(tmp_path, FAR_NODES, "far.json")
    zx = _winding_payload(["--params", str(path), "--n", "100", "--plane", "zx"], capsys)["planes"]["zx"]
    assert zx["node_sum"] == zx["integral"] == -100 and zx["agreement"]


def test_sweep_spot_check_passes_where_sigma_x_nodes_sit_far_out(tmp_path):
    spec = {"params": FAR_NODES, "axes": [{"name": "Gamma", "min": 0.004, "max": 0.006, "count": 5}],
            "levels": [{"n": 100, "eta": -1}], "observables": ["nWzx"], "spot_check_fraction": 1.0}
    assert _sweep(tmp_path, spec) == 0
    rows = {float(row.split(",")[0]): row.split(",")[3] for row in (tmp_path / "out.csv").read_text().splitlines()[1:]}
    assert rows[0.005] == "-100"


def test_winding_solves_the_sigma_x_nodes_once_for_both_planes(monkeypatch, capsys):
    import nhjc.texture
    import nhjc.topology

    original, calls = nhjc.texture.x_node_arrays, []

    def counted(n, ratio):
        calls.append(n)
        return original(n, ratio)

    for module in (nhjc.texture, nhjc.topology):
        monkeypatch.setattr(module, "x_node_arrays", counted)
    payload = _winding_payload(["--params", str(CONFIGS / "reference.json"), "--n", "5",
                                "--plane", "both", "--method", "both"], capsys)
    assert sorted(payload["planes"]) == ["yx", "zx"] and calls == [5]


@pytest.mark.parametrize("config", ["reference", "dissipative_base", "hermitian"])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_every_command_runs_on_the_shipped_parameter_files(config, n, capsys):
    commands = [["eigen"], ["texture"], ["winding", "--plane", "both", "--method", "both"],
                *(["boundaries", "--solve-for", name] for name in SOLVABLE)]
    for command in commands:
        rc = main([*command, "--params", str(CONFIGS / f"{config}.json"), "--n", str(n)])
        if command[0] == "boundaries" and n == 0:  # the R family needs a level n >= 1
            assert "n >= 1" in _one_line_usage_error(rc, capsys)
        else:
            captured = capsys.readouterr()
            assert (rc, captured.err) == (0, ""), command
            assert captured.out


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
    assert _sweep(tmp_path, spec) == 0
    assert (tmp_path / "out.csv").exists() and (tmp_path / "out.csv.overlay.GR.csv").exists()


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
    (["--draws", str(10 ** 23)], f"draws must be >= 1 and <= {sys.maxsize}, got {10 ** 23}"),
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
    bad = _json_file(tmp_path, dict(PARAMS, omega="abc"), "bad.json")
    rc = main(["eigen", "--params", str(bad), "--n", "1"])
    assert "'omega'" in _one_line_usage_error(rc, capsys)


def test_non_numeric_sweep_count_is_usage_error(tmp_path, capsys):
    spec = {
        "params": PARAMS,
        "axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": "x"}],
        "levels": [{"n": 1, "eta": -1}],
    }
    _one_line_usage_error(_sweep(tmp_path, spec), capsys)


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_texture_grid_points_below_two_is_usage_error(params_file, points, capsys):
    rc = main(["texture", "--params", params_file, "--n", "2", "--grid-points", points])
    assert "--grid-points" in _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("command", ["texture", "sweep"])
def test_counts_past_sys_maxsize_are_usage_errors(params_file, tmp_path, capsys, command):
    # numpy raised ValueError: Maximum allowed size exceeded, a traceback
    if command == "texture":
        rc = main(["texture", "--params", params_file, "--n", "2", "--grid-points", str(10 ** 23)])
    else:
        rc = _sweep(tmp_path, {"params": PARAMS, "levels": [{"n": 1}],
                               "axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": 10 ** 23}]})
    assert str(sys.maxsize) in _one_line_usage_error(rc, capsys)


def test_out_of_memory_is_a_one_line_computation_error(params_file, capsys, monkeypatch):
    # what numpy raises for --grid-points 1000000000000; never allocated here
    import nhjc.texture

    def allocate(n, points):
        raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({points},) "
                          "and data type float64")

    monkeypatch.setattr(nhjc.texture, "standard_grid", allocate)
    rc = main(["texture", "--params", params_file, "--n", "2", "--grid-points", str(10 ** 12)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == ("error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
                            "(1000000000000,) and data type float64\n")


@pytest.mark.parametrize("command, count", [("texture", sys.maxsize), ("texture", 2 ** 62), ("verify", sys.maxsize),
                                            ("sweep", sys.maxsize)])
def test_a_count_past_the_array_limit_is_a_one_line_out_of_memory_error(params_file, tmp_path, capsys, command,
                                                                         count):
    # numpy raised IndexError (linspace at sys.maxsize) or ValueError: array is
    # too big, a traceback; the count is checked before anything is allocated
    if command == "texture":
        rc = main(["texture", "--params", params_file, "--n", "2", "--grid-points", str(count)])
    elif command == "verify":
        rc = main(["verify", "--draws", str(count), "--n-max", "1"])
    else:
        rc = _sweep(tmp_path, {"params": PARAMS, "levels": [{"n": 1}],
                               "axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": count}]})
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: out of memory: {count} x ")


def test_a_negative_rate_is_a_one_line_warning(tmp_path, capsys):
    # Python printed it as "<string>:9: NegativeRateWarning: ...", at the
    # __init__ the dataclass generates
    path = _json_file(tmp_path, {"omega": 0.9, "Omega": 1.0, "g": 0.05, "kappa": -0.5, "gamma": 0.2, "Gamma": 0.0})
    assert main(["eigen", "--params", str(path), "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["n"] == 1
    assert captured.err == ("warning: negative decay rate(s) kappa: formulas remain valid but the parameters "
                            "are unphysical as loss rates\n")


@pytest.mark.parametrize("command", ["winding", "texture"])
def test_level_above_validity_domain_is_usage_error(params_file, command, capsys):
    rc = main([command, "--params", params_file, "--n", "250"])
    assert "--n" in _one_line_usage_error(rc, capsys)


# configs/reference.json scaled so that Omega sits at the bound
_AT_BOUND = {"omega": 0.9 * PARAM_MAX, "Omega": PARAM_MAX, "g_rel": 0.1,
             "kappa": 0.5 * PARAM_MAX, "gamma": 0.2 * PARAM_MAX, "Gamma": 0.1 * PARAM_MAX}
_PAST_BOUND = math.nextafter(PARAM_MAX, math.inf)
_NOT_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


@pytest.mark.parametrize("n", [1, N_MAX])
def test_outputs_at_the_parameter_bound_are_finite(tmp_path, capsys, n):
    path = _json_file(tmp_path, _AT_BOUND)
    for command in ("eigen", "texture", "winding"):
        assert main([command, "--params", str(path), "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert out and not _NOT_FINITE.search(out), command


@pytest.mark.parametrize("command", ["eigen", "texture", "winding", "boundaries"])
def test_parameters_past_the_bound_are_one_line_usage_errors(tmp_path, capsys, command):
    # "Gamma": 1e160 ended in an OverflowError traceback from the |z|^2 of the norm
    for name, value in [("Gamma", 1e160), ("g_rel", 1e160), ("omega", _PAST_BOUND), ("Omega", _PAST_BOUND),
                        ("g", -_PAST_BOUND), ("kappa", _PAST_BOUND), ("gamma", -_PAST_BOUND),
                        ("Gamma", _PAST_BOUND)]:
        params = {key: v for key, v in PARAMS.items() if not (name == "g" and key == "g_rel")}
        argv = [command, "--params", str(_json_file(tmp_path, dict(params, **{name: value}))), "--n", "1"]
        if command == "boundaries":
            argv += ["--solve-for", "Gamma"]
        err = _one_line_usage_error(main(argv), capsys)
        assert f"'{'g' if name == 'g_rel' else name}' must have magnitude <= 1e+152" in err


@pytest.mark.parametrize("low", [-PARAM_MAX, -_PAST_BOUND])
def test_sweep_axis_ends_are_held_to_the_bound(tmp_path, capsys, low):
    spec = {"params": PARAMS, "axes": [{"name": "g", "min": low, "max": PARAM_MAX, "count": 3}],
            "levels": [{"n": 1}, {"n": N_MAX}], "observables": ["thetaT", "deltaPlus", "CtZ"]}
    rc = _sweep(tmp_path, spec)
    if low == -PARAM_MAX:
        assert rc == 0 and "inf" not in (tmp_path / "out.csv").read_text()
    else:
        assert "'g' must have magnitude <= 1e+152" in _one_line_usage_error(rc, capsys)


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


_AXIS = {"name": "Gamma", "min": 0.0, "max": 0.05, "count": 2}


def _sweep_spec_error(tmp_path, capsys, whole=None, drop=None, **extra):
    """The usage error of a sweep spec: the valid one below with extra keys
    and without the key drop, or whole in its place."""
    spec = {
        "params": PARAMS,
        "axes": [_AXIS],
        "levels": [{"n": 1, "eta": -1}],
        "observables": ["nWzx"],
    }
    spec = _without(spec | extra, drop) if whole is None else whole
    return _one_line_usage_error(_sweep(tmp_path, spec), capsys)


def test_sweep_level_above_validity_domain_is_usage_error(tmp_path, capsys):
    assert "200" in _sweep_spec_error(tmp_path, capsys, levels=[{"n": 250, "eta": -1}])


@pytest.mark.parametrize("volumetric", ["false", 0, 1, "yes"])
def test_sweep_non_boolean_volumetric_is_usage_error(tmp_path, capsys, volumetric):
    assert "volumetric" in _sweep_spec_error(tmp_path, capsys, volumetric=volumetric)


@pytest.mark.parametrize("fraction", ["nan", "inf", 1.5, -0.1])
def test_sweep_spot_check_fraction_outside_unit_interval_is_usage_error(tmp_path, capsys, fraction):
    assert "spot_check_fraction" in _sweep_spec_error(tmp_path, capsys, spot_check_fraction=fraction)


def test_winding_without_coupling_prints_null_planes(tmp_path, capsys):
    # g~ = 0: at eta = +1 Cz = Cy = 0 exactly, so both planes sit on a
    # boundary and read null, as in a sweep's on_boundary row; the call ended
    # in "coefficient ratio inf admits no sigma_x nodes" (the branch has
    # C_down = 0), checked before the planes were read. At eta = -1 the state
    # has vanishing coefficients.
    path = _json_file(tmp_path, dict(PARAMS, g_rel=0.0, Gamma=0.0), "uncoupled.json")
    nulls = {"degenerate": False, "node_sum": None, "integral": None, "integral_residual": None,
             "direction_rule": None, "agreement": None}
    planes = _winding_payload(["--params", str(path), "--n", "2", "--eta", "1"], capsys)["planes"]
    assert planes == {plane: dict(nulls, plane=plane) for plane in ("zx", "yx")}
    rc = main(["winding", "--params", str(path), "--n", "2", "--eta", "-1"])
    err = capsys.readouterr().err
    assert rc == 1 and err == "error: state (n=2, eta=-1) has vanishing coefficients\n"


@pytest.mark.parametrize("extra, message", [
    ({"overlay": ["R"]}, "unknown sweep spec key(s): 'overlay'"),
    ({"extra": 1, "Levels": []}, "unknown sweep spec key(s): 'Levels', 'extra'"),
    ({"axes": [{"name": "Gamma", "min": 0.0, "max": 0.05, "count": 2, "step": 1}]}, "unknown axis key(s): 'step'"),
    ({"levels": [{"n": 1, "eta": -1, "Eta": 1}]}, "unknown level key(s): 'Eta'"),
    ({"overlays": "R"}, "'overlays' must be a JSON array, got 'R'"),
    ({"overlays": "SI"}, "'overlays' must be a JSON array, got 'SI'"),
    ({"observables": "imE"}, "'observables' must be a JSON array, got 'imE'"),
    ({"observables": {"nWzx": 1}}, "'observables' must be a JSON array"),
    ({"observables": ["thetaT", "imE", "thetaT"]}, "each observable may be named once"),
    ({"overlays": ["GR", "R", "GR"]}, "each overlay family may be named once"),
    ({"axes": [{"name": "g", "min": 0.0, "max": 0.1, "count": 2}] * 2},
     "each axis parameter may be named once, got ['g', 'g']"),
    ({"levels": [{"n": 1}, {"n": 1, "eta": -1}]}, "each level may be named once, got [(1, -1), (1, -1)]"),
    ({"levels": {"n": 1}}, "'levels' must be a JSON array of objects, got {'n': 1}"),
    ({"levels": [1]}, "'levels' must be a JSON array of objects, got [1]"),
    ({"axes": ["Gamma"]}, "'axes' must be a JSON array of objects, got ['Gamma']"),
    ({"whole": [1]}, "a sweep spec must be a JSON object, got [1]"),
    ({"drop": "params"}, "error: missing required sweep spec key 'params'\n"),
    ({"drop": "axes"}, "error: missing required sweep spec key 'axes'\n"),
    ({"drop": "levels"}, "error: missing required sweep spec key 'levels'\n"),
    ({"axes": [_without(_AXIS, "name")]}, "error: missing required axis key 'name'\n"),
    ({"axes": [_without(_AXIS, "min")]}, "error: missing required axis key 'min'\n"),
    ({"axes": [_without(_AXIS, "max")]}, "error: missing required axis key 'max'\n"),
    ({"axes": [_without(_AXIS, "count")]}, "error: missing required axis key 'count'\n"),
    ({"levels": [{"eta": -1}]}, "error: missing required level key 'n'\n"),
    ({"params": _without(PARAMS, "omega")}, "error: missing required parameter set key 'omega'\n"),
    ({"params": _without(PARAMS, "Omega")}, "error: missing required parameter set key 'Omega'\n"),
], ids=["top-level typo", "two unknown keys", "axis key", "level key", "overlays R string",
        "overlays SI string", "observables string", "observables object", "repeated observable",
        "repeated overlay", "repeated axis", "repeated level", "levels object", "levels of numbers",
        "axes of strings", "spec array", "no params", "no axes", "no levels", "axis without name",
        "axis without min", "axis without max", "axis without count", "level without n", "params without omega",
        "params without Omega"])
def test_sweep_spec_typos_and_repeats_are_usage_errors(tmp_path, capsys, extra, message):
    # each of these exited 0 ignoring the key, read a string as its letters,
    # wrote a table whose header or rows repeated, or printed a Python exception
    # (a missing key as "malformed sweep spec: KeyError('levels')")
    assert message in _sweep_spec_error(tmp_path, capsys, **extra)


@pytest.mark.parametrize("key", ["omega", "Omega"])
def test_a_missing_parameter_is_named(tmp_path, capsys, key):
    path = _json_file(tmp_path, _without(PARAMS, key))
    rc = main(["eigen", "--params", str(path), "--n", "1"])
    assert _one_line_usage_error(rc, capsys) == f"error: missing required parameter set key {key!r}\n"


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
        # the main pass solves no sigma_x node: the spot check of every point does
        "spot_check_fraction": 1.0,
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
    rc = _sweep(tmp_path, spec)
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


def _assert_one_line_usage_error(command, path, n) -> None:
    """`nhjc <command> --params path --n n` (solving for Gamma in boundaries)
    prints nothing and exits 2 with a one-line error. It captures without
    capsys, which the examples of a hypothesis test share."""
    argv = [command, "--params", str(path), "--n", str(n)]
    if command == "boundaries":
        argv += ["--solve-for", "Gamma"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc == 2 and out.getvalue() == "", message
    assert message.startswith("error: ") and message.count("\n") == 1 and "Traceback" not in message


@given(content=_malformed_params_files(), command=st.sampled_from(["eigen", "boundaries"]))
@example(content=b'{"omega": "0.9", "Omega": 1.0, "g": 0.05}', command="eigen")
@example(content=b'{"omega": 0.9, "Omega": true, "g": 0.05}', command="boundaries")
@example(content=b'{"omega": 0.9, "Omega": 1.0, "g": 0.05, "x\\ny": 1}', command="eigen")
@example(content=b"\xff\xfe{}", command="boundaries")
@example(content=b'{"omega": 0.9, "Omega": 1%s, "g": 0.05}' % (b"0" * 5000), command="eigen")
@example(content=b"[" * 100_000 + b"]" * 100_000, command="eigen")  # a RecursionError traceback
@settings(max_examples=300, deadline=None)
def test_malformed_params_files_are_one_line_usage_errors(tmp_path_factory, content, command):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_bytes(content)
    _assert_one_line_usage_error(command, path, 2)


@given(n=st.integers(max_value=-1) | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024),
       command=st.sampled_from(["eigen", "boundaries"]))
@example(n=10 ** 320, command="eigen")
@example(n=10 ** 320, command="boundaries")
@example(n=-1, command="boundaries")
@settings(max_examples=100, deadline=None)
def test_negative_levels_and_levels_past_float_range_are_one_line_usage_errors(n, command):
    # a level past float range ended in an OverflowError traceback
    _assert_one_line_usage_error(command, CONFIGS / "reference.json", n)


_LEVELS = (st.integers(0, 4) | st.integers(max_value=-1) | st.integers(201, 10 ** 6)
           | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024))
_NOT_A_CHOICE = st.integers() | st.text(max_size=5)
_FLAGS = {
    "texture": {"--eta": st.sampled_from(["1", "-1"]) | _NOT_A_CHOICE,
                # valid counts stay small: an oversized grid is never allocated
                "--grid-points": st.integers(2, 40) | st.integers(max_value=1)
                | st.integers(min_value=sys.maxsize + 1)},
    "winding": {"--eta": st.sampled_from(["1", "-1"]) | _NOT_A_CHOICE,
                "--plane": st.sampled_from(["zx", "yx", "both"]) | _NOT_A_CHOICE,
                "--method": st.sampled_from(["integral", "nodes", "both"]) | _NOT_A_CHOICE},
}


@st.composite
def _oscillator_argv(draw) -> list[str]:
    """texture or winding with --n and any subset of the command's other
    flags, each valid or not."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--n", str(draw(_LEVELS))]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv


@given(argv=_oscillator_argv())
@example(argv=["winding", "--n", "201", "--plane", "both"])
@example(argv=["texture", "--n", str(-2 ** 1024), "--grid-points", "1"])
@example(argv=["texture", "--n", "3", "--grid-points", str(sys.maxsize + 1)])
@example(argv=["winding", "--n", "2", "--eta", "0", "--method", "all"])
@settings(max_examples=150, deadline=None)
def test_texture_and_winding_flags_exit_cleanly(argv):
    path = CONFIGS / "reference.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--params", str(path)])
    message = err.getvalue()
    assert rc in (0, 1, 2) and "Traceback" not in message, message
    assert sum("error:" in line for line in message.splitlines()) == (rc != 0), message
    assert bool(out.getvalue()) == (rc == 0)


@pytest.mark.parametrize("axis, message", [
    ('{"name": "Gamma", "min": 0.0, "max": 0.1, "count": 1%s}' % ("0" * 5000), "'count' must be an integer"),
    ('{"name": "Gamma", "min": "0.0", "max": 0.1, "count": 3}', "'min' must be a number"),
    ("[" * 100_000 + "]" * 100_000, "error: the JSON of the input file is nested too deeply to decode\n"),
], ids=["5001-digit count", "string min", "nested 100 000 deep"])
def test_sweep_spec_numbers_follow_the_parameter_file_rule(tmp_path, capsys, axis, message):
    # a 5 001-digit count ended in a ValueError traceback; a string was read
    # as a number; an array nested past the decoder's recursion limit ended in
    # a RecursionError traceback
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"params": %s, "axes": [%s], "levels": [{"n": 1}]}' % (json.dumps(PARAMS), axis))
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")])
    assert message in _one_line_usage_error(rc, capsys)


def _boundaries(tmp_path, capsys, params, family, solve_for="kappa"):
    path = _json_file(tmp_path, params)
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


def test_a_sweep_overlay_past_float_range_names_its_point(tmp_path, capsys):
    # the overlay solve ran outside the naming of points: the error named none
    spec = {"params": dict(_HUGE_GR, Gamma=0.0), "levels": [{"n": 1}], "overlays": ["GR"],
            "axes": [{"name": "kappa", "min": 0.0, "max": 1.2, "count": 3},
                     {"name": "Gamma", "min": 1e-310, "max": 1e-300, "count": 3}]}
    assert _sweep(tmp_path, spec) == 2 and capsys.readouterr().err == (
        "error: kappa must be finite, got inf (at Gamma=1e-310, n=1)\n")
    assert not (tmp_path / "out.csv").exists()


def test_gapped_reversal_of_a_weak_coupling_keeps_every_level(tmp_path, capsys):
    # (d_kg / 2g)^2 leaves float range: it ended in an OverflowError traceback
    params = {"omega": 0.9, "Omega": 1.0, "g": 1e-200, "kappa": 0.5, "gamma": 0.2, "Gamma": 0.1}
    rc, captured = _boundaries(tmp_path, capsys, params, "GR", "Gamma")
    assert rc == 0
    assert json.loads(captured.out)[0]["validity_detail"].startswith("transition exists for levels n < inf")


@pytest.mark.parametrize("n", ["0", "-2"])
def test_every_boundary_family_needs_a_level(tmp_path, capsys, n):
    # SI solved at any level (exit 0), and GR read the level only after solving
    # (exit 1 where it had no closed form, else `level n must be >= 1`)
    for family in ("R", "GR", "SI"):
        rc = main(["boundaries", "--params", str(CONFIGS / "reference.json"), "--n", n,
                   "--solve-for", "Gamma", "--family", family])
        assert _one_line_usage_error(rc, capsys) == f"error: family {family} needs a level n >= 1, got {n}\n"
    rc = main(["boundaries", "--params", str(CONFIGS / "reference.json"), "--n", n, "--solve-for", "Gamma"])
    assert _one_line_usage_error(rc, capsys) == f"error: family R needs a level n >= 1, got {n}\n"


@pytest.mark.parametrize("family", ["R", "GR", "SI"])
def test_a_single_family_without_a_boundary_is_a_computation_error(tmp_path, capsys, family):
    # Omega = omega and g = Gamma = 0 zero the denominator of every family in kappa
    params = {"omega": 1.0, "Omega": 1.0, "g": 0.0, "kappa": 0.5, "gamma": 0.2, "Gamma": 0.0}
    rc, captured = _boundaries(tmp_path, capsys, params, family)
    assert rc == 1 and captured.err.startswith(f"error: family {family} has no boundary in kappa: ")
    rc, captured = _boundaries(tmp_path, capsys, params, "all")
    assert rc == 0 and [p["valid"] for p in json.loads(captured.out)] == [False, False, False]


def _weak_coupling_winding(tmp_path, capsys, g, n):
    """The exit code and stderr of `nhjc winding` at level n, eta = +1, on
    the reference configuration with coupling g and Gamma = 0."""
    path = _json_file(tmp_path, dict(_without(PARAMS, "g_rel"), g=g, Gamma=0.0))
    rc = main(["winding", "--params", str(path), "--n", str(n), "--eta", "1"])
    return rc, capsys.readouterr().err


# At eta = +1 with g~ -> 0 (rho >~ 1e11) a sigma_x node sits closer to its
# root of H_(n-1) than the innermost winding shell resolves, or on its float.
# These exited 0 with node sum -5 against integral -1 (the first), 1 with an
# angle step >= pi/2 (the second and the last) and 1 with a false "left a node
# outside its interval" (the third).
@pytest.mark.parametrize("g, n, distance, root, rho", [
    (1e-14, 5, "2.22e-14", "-1.6506801238857844", "14142135623730.95"),
    (1e-14, 2, "2.24e-14", "0.0", "22360679774997.895"),
    (1e-16, 5, "0", "0.5246476232752904", "1414213562373095.2"),
    (1e-160, 2, "2.24e-160", "0.0", "2.2360679774997896e+159"),
])
def test_winding_names_a_sigma_x_loop_finer_than_the_innermost_shell(tmp_path, capsys, g, n, distance, root, rho):
    rc, err = _weak_coupling_winding(tmp_path, capsys, g, n)
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"error: sigma_x node {distance} from the Hermite root {root}, inside the innermost "
                          "winding shell ")
    assert err.endswith(f": its loop is not resolved (rho={rho}, n={n})\n")


# At n = 1 and eta = +1 the two sigma_x nodes are +-rho/sqrt(2): with g~ ->
# 0 they lie far past the |x| <= 40 winding grid. These exited 0 with node
# sum -1 against integral 0 and "agreement": false in both planes.
@pytest.mark.parametrize("g, node, rho", [
    (1e-20, "-2.2360679774997897e+19", "3.1622776601683796e+19"),
    (1e-100, "-2.2360679774997896e+99", "3.1622776601683795e+99"),
    (1e-160, "-2.2360679774997896e+159", "3.1622776601683796e+159"),
])
def test_winding_names_a_sigma_x_node_past_the_grid(tmp_path, capsys, g, node, rho):
    rc, err = _weak_coupling_winding(tmp_path, capsys, g, 1)
    assert rc == 1 and err.count("\n") == 1
    assert err == (f"error: sigma_x node {node} lies past the |x| <= 40 winding grid: its loop is not resolved "
                   f"(rho={rho}, n=1)\n")


# With eta = +1 and rho ~ 1e11 to 1e12 the outermost sigma_x node lies past
# |x| = 40 too, but the walk's end angles are not +-pi/2 to the float, so the
# end closure holds: the error is the narrow crossing's own angle step. These
# were blamed on the far node.
@pytest.mark.parametrize("g, n, step, plane, points", [
    (3e-13, 8, "1.849", "zx", 2227),
    (3e-13, 20, "1.954", "zx", 4435),
    (1e-13, 3, "1.630", "yx", 1307),
    (1e-13, 5, "1.848", "zx", 1675),
])
def test_winding_past_the_grid_with_closed_ends_names_its_angle_step(tmp_path, capsys, g, n, step, plane, points):
    assert _weak_coupling_winding(tmp_path, capsys, g, n) == (
        1, f"error: angle step {step} rad >= pi/2 in plane {plane} ({points} grid points)\n")


def test_winding_at_n_1_still_agrees_where_the_nodes_are_on_the_grid(tmp_path, capsys):
    # g = 1e-16: rho ~ 3e15, and both routes give -1 in both planes, as before
    path = _json_file(tmp_path, dict(_without(PARAMS, "g_rel"), g=1e-16, Gamma=0.0))
    assert main(["winding", "--params", str(path), "--n", "1", "--eta", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "b0cfd384fc9fc4bd24104d327b1c888c472d2b07e657d7402228d8c6cf4e9c68"
    assert {plane: (r["node_sum"], r["integral"], r["agreement"]) for plane, r in json.loads(out)["planes"].items()} \
        == {"zx": (-1, -1, True), "yx": (-1, -1, True)}


def test_texture_csv_matches_the_cell_formatter(capsys):
    from nhjc import LevelIndex, load_params, standard_grid, texture_closed_form

    path = CONFIGS / "reference.json"
    assert main(["texture", "--params", str(path), "--n", "5", "--eta", "1", "--grid-points", "5000"]) == 0
    tex = texture_closed_form(load_params(path), LevelIndex(5, 1), standard_grid(5, 5000))
    rows = zip(*(column.tolist() for column in (tex.grid, tex.sx, tex.sy, tex.sz)))
    assert capsys.readouterr().out == "x,sx,sy,sz\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                                                               for row in rows)


def test_eigen_evaluates_each_block_once(evaluations, capsys):
    # block n was evaluated for the state, for the printed invariants and for
    # the gaps: [3, 3, 3, 2, 4]
    assert main(["eigen", "--params", str(CONFIGS / "reference.json"), "--n", "3"]) == 0
    assert [n for n, _ in evaluations] == [3, 2, 4]


# sha256 of the outputs of each command on each shipped parameter file at
# n = 0, 1, 5, 100, 200 and eta = -1, +1 (in that order), joined
CLI_OUTPUTS = {
    ("eigen", "dissipative_base"): "fa593bbd1a171a0cde8ed3871ead6c3bf25d7a225d867fa7e1b81f611c7a4e66",
    ("eigen", "hermitian"): "4d8e2069c18d0e0e2bea39b12fa831649959bf7736da343d3d7bd2e4ad9567ad",
    ("eigen", "reference"): "7f486cd1fa4d871fc6230f9dfa8e3ad581c8e653404fb840148f169f060897a3",
    ("texture", "dissipative_base"): "154847cd2d3644db85825470c66529ae89fd1fb1b3fb82858cddd689cc4cf043",
    ("texture", "hermitian"): "3ead266cc91763c6d6ea98c9e94256b4a6bc7439c6fe43908c8696d909890ec1",
    ("texture", "reference"): "7551be0eab07ba52d32a7ff1a3115e9be091218fbd4900ffb3568ac732b9d94c",
    ("winding", "dissipative_base"): "2d23d7c086405011feac787ea092f76cc2f2593ec39bbb28d323b84f11636d9b",
    ("winding", "hermitian"): "15c7408d2c230af4d13f04e7d0a1ce3caeef6bc915ebec36ae39055e737b47f9",
    ("winding", "reference"): "6153730133ccff85762c134e149c086224ed64bfa78b1fda026565ea182f66bf",
}


@pytest.mark.parametrize("command, config", sorted(CLI_OUTPUTS))
def test_the_outputs_on_the_shipped_parameter_files_are_pinned(command, config, capsys):
    outputs = []
    for n in (0, 1, 5, 100, 200):
        for eta in ("-1", "1"):
            assert main([command, "--params", str(CONFIGS / f"{config}.json"), "--n", str(n), "--eta", eta]) == 0
            outputs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == CLI_OUTPUTS[command, config]
