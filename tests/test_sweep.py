import json
import math

import numpy as np
import pytest

import nhjc
from nhjc import (
    Axis,
    LevelIndex,
    ModelParams,
    SweepSpec,
    SweepSpecError,
    block_quantities,
    boundary_SI,
    run_sweep,
    texture_coefficients,
)
from nhjc.verify import BOUNDARY_MARGIN, boundary_margin
from conftest import make_reference

# draw 122 of the full `nhjc verify` run (seed 20240901): its smallest margin is
# the SI distance |Cy| of level (8, -1), just above BOUNDARY_MARGIN
DRAW_122 = ModelParams(omega=0.2769484135494958, Omega=1.0669674364656399,
                       g=1.0271613458466813, kappa=0.6989358470205418,
                       gamma=0.9729437761396005, Gamma=0.34281224721929854)


def small_spec(**overrides):
    defaults = dict(
        base=make_reference(Gamma=0.0),
        axes=(Axis("Gamma", 0.0, 0.1, 5),),
        levels=(LevelIndex(2, -1),),
        observables=("thetaT", "deltaMinus", "nWzx", "nWyx", "CtZ", "CtY", "imE", "deltaPlus"),
        overlays=("R", "GR", "SI"),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_row_count_and_order():
    spec = small_spec(axes=(Axis("Gamma", 0.0, 0.1, 3), Axis("g", 0.01, 0.05, 2)),
                      levels=(LevelIndex(1, -1), LevelIndex(2, -1)))
    result = run_sweep(spec)
    assert len(result.rows) == 3 * 2 * 2
    # axes row-major, levels innermost
    gammas = [row[0] for row in result.rows]
    assert gammas == sorted(gammas)
    assert [row[2] for row in result.rows[:2]] == [1, 2]


def test_minimal_two_point_sweep():
    spec = small_spec(axes=(Axis("Gamma", 0.0, 0.05, 2),), overlays=())
    result = run_sweep(spec)
    assert len(result.rows) == 2
    for row in result.rows:
        theta = row[result.columns.index("thetaT")]
        assert math.isfinite(theta)


def test_csv_is_byte_identical_across_runs(tmp_path):
    spec = small_spec()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_sweep(spec).to_csv(first)
    run_sweep(spec).to_csv(second)
    assert first.read_bytes() == second.read_bytes()
    overlay_a = tmp_path / "a.csv.overlay.R.csv"
    overlay_b = tmp_path / "b.csv.overlay.R.csv"
    assert overlay_a.read_bytes() == overlay_b.read_bytes()


def test_csv_format_contract(tmp_path):
    spec = small_spec(overlays=())
    path = tmp_path / "out.csv"
    run_sweep(spec).to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["Gamma", "n", "eta", "thetaT"]
    assert header[-3:] == ["degenerate", "exceptional", "on_boundary"]
    cells = lines[1].split(",")
    assert cells[header.index("degenerate")] in ("0", "1")
    # 17 significant digits
    theta = cells[header.index("thetaT")]
    assert len(theta.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 16


def test_winding_sign_structure_changes_across_boundaries():
    # sweep through the gapped reversal and reversal points in Gamma
    spec = small_spec(axes=(Axis("Gamma", 0.001, 0.12, 25),), overlays=("R", "GR"))
    result = run_sweep(spec)
    zx = [row[result.columns.index("nWzx")] for row in result.rows]
    assert {2, -2} <= set(int(v) for v in zx if not math.isnan(v))


def test_overlay_files_and_level_dependence(tmp_path):
    spec = small_spec(axes=(Axis("Gamma", 0.001, 0.12, 4), Axis("g", 0.01, 0.06, 3)),
                      levels=(LevelIndex(2, -1),))
    result = run_sweep(spec)
    cols_r, rows_r = result.overlays["R"]
    assert cols_r == ("g", "n", "Gamma", "valid")
    assert len(rows_r) == 3  # one per g sample for the single level
    cols_si, rows_si = result.overlays["SI"]
    assert cols_si == ("g", "Gamma", "valid")
    path = tmp_path / "s.csv"
    result.to_csv(path)
    assert (tmp_path / "s.csv.overlay.GR.csv").exists()


def test_vacuum_level_rows_are_flagged_not_fatal():
    spec = small_spec(levels=(LevelIndex(0), LevelIndex(1, -1)), overlays=())
    result = run_sweep(spec)
    vacuum_rows = [row for row in result.rows if row[result.columns.index("n")] == 0]
    assert vacuum_rows
    for row in vacuum_rows:
        assert row[result.columns.index("degenerate")] is True
        assert int(row[result.columns.index("nWzx")]) == 0


def test_on_boundary_points_omit_direction():
    gr_value = make_reference(Gamma=0.0).g * 0.1 / 0.3
    base = make_reference(Gamma=0.0)
    spec = SweepSpec(
        base=base,
        axes=(Axis("Gamma", gr_value - 1e-12, gr_value + 1e-12, 3),),
        levels=(LevelIndex(2, -1),),
        observables=("thetaT", "nWzx"),
    )
    result = run_sweep(spec)
    flags = [row[result.columns.index("on_boundary")] for row in result.rows]
    assert any(flags)
    for row in result.rows:
        if row[result.columns.index("on_boundary")]:
            assert math.isnan(row[result.columns.index("nWzx")])


def test_overlay_consistency_with_gap_observable():
    # at a reversal overlay sample the interpolated gap must collapse to the
    # grid-induced scale; at the gapped-reversal sample it stays open
    spec = small_spec(axes=(Axis("Gamma", 0.001, 0.12, 121),),
                      observables=("deltaMinus",), overlays=("R", "GR"))
    result = run_sweep(spec)
    gammas = np.array([row[0] for row in result.rows])
    gap = np.array([row[result.columns.index("deltaMinus")] for row in result.rows])

    def interpolate(value):
        i = int(np.searchsorted(gammas, value))
        assert 0 < i < len(gammas)
        w = (value - gammas[i - 1]) / (gammas[i] - gammas[i - 1])
        return (1 - w) * gap[i - 1] + w * gap[i], abs(gap[i] - gap[i - 1])

    (_, rows_r) = result.overlays["R"]
    (gamma_r, valid_r) = rows_r[0][-2], rows_r[0][-1]
    assert valid_r
    at_r, local = interpolate(gamma_r)
    assert at_r <= 10.0 * local
    (_, rows_gr) = result.overlays["GR"]
    at_gr, _ = interpolate(rows_gr[0][-2])
    assert at_gr > 1e-6  # margin in units of the qubit splitting


def test_all_levels_cross_zero_tilt_at_super_invariant_point():
    base = make_reference(Gamma=0.05)
    spec = SweepSpec(
        base=base,
        axes=(Axis("gamma", 0.0, 1.2, 241),),
        levels=tuple(LevelIndex(n, -1) for n in (1, 11, 51, 91)),
        observables=("thetaT",),
        overlays=("SI",),
    )
    result = run_sweep(spec)
    (_, rows_si) = result.overlays["SI"]
    gamma_si = rows_si[0][-2]
    for n in (1, 11, 51, 91):
        series = [(row[0], row[result.columns.index("thetaT")])
                  for row in result.rows if row[1] == n]
        # the tilt changes sign across the super-invariant point for every level
        last_below = [th for g_val, th in series if g_val < gamma_si][-1]
        first_above = [th for g_val, th in series if g_val > gamma_si][0]
        assert last_below * first_above <= 0.0, (n, last_below, first_above)


def test_spec_validation_errors():
    with pytest.raises(SweepSpecError):
        small_spec(axes=())
    with pytest.raises(SweepSpecError):
        small_spec(axes=(Axis("Gamma", 0.0, 0.1, 3), Axis("Gamma", 0.0, 0.2, 3)))
    with pytest.raises(SweepSpecError):
        small_spec(observables=("nope",))
    with pytest.raises(SweepSpecError):
        Axis("Gamma", 0.3, 0.1, 5)
    with pytest.raises(SweepSpecError):
        Axis("Omega", 0.1, 0.3, 5)


def test_spot_check_disagreement_aborts(monkeypatch):
    import nhjc.sweep as sweep_module
    from nhjc import SweepConsistencyError

    monkeypatch.setattr(sweep_module, "_integral_winding",
                        lambda params, level, plane: 99)
    spec = small_spec(axes=(Axis("Gamma", 0.001, 0.03, 4),),
                      observables=("nWzx",), overlays=(), spot_check_fraction=1.0)
    with pytest.raises(SweepConsistencyError, match="row"):
        run_sweep(spec)


def test_spec_json_roundtrip(tmp_path):
    payload = {
        "params": {"omega": 0.9, "Omega": 1.0, "g_rel": 0.1, "kappa": 0.5, "gamma": 0.2},
        "axes": [{"name": "Gamma", "min": 0.0, "max": 0.1, "count": 4}],
        "levels": [{"n": 2, "eta": -1}, {"n": 3}],
        "observables": ["thetaT", "nWzx"],
        "overlays": ["GR"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    spec = SweepSpec.load(path)
    assert spec.axes[0].count == 4
    assert spec.levels[1] == LevelIndex(3, -1)
    result = run_sweep(spec)
    assert len(result.rows) == 8
    json_path = tmp_path / "out.json"
    result.to_json(json_path)
    loaded = json.loads(json_path.read_text())
    assert loaded["columns"][0] == "Gamma"
    assert len(loaded["rows"]) == 8


def test_3d_sweep_emits_surfaces_only_by_default():
    spec = SweepSpec(
        base=make_reference(Gamma=0.05),
        axes=(Axis("gamma", 0.1, 1.0, 3), Axis("Gamma", 0.01, 0.1, 3), Axis("g", 0.02, 0.06, 2)),
        levels=(LevelIndex(1, -1),),
        observables=("thetaT",),
        overlays=("SI",),
    )
    result = run_sweep(spec)
    assert result.rows == []  # volumetric output off by default in 3D
    cols, rows = result.overlays["SI"]
    assert cols == ("Gamma", "g", "gamma", "valid")
    assert len(rows) == 3 * 2
    import dataclasses

    full = run_sweep(dataclasses.replace(spec, volumetric=True))
    assert len(full.rows) == 3 * 3 * 2


def test_block_kernel_runs_at_most_three_times_per_row(monkeypatch):
    # a row needs blocks n-1, n and n+1 at most; count every call of the kernel
    # whichever module makes it
    original = nhjc.spectrum.block_quantities
    calls = []

    def counted(params, n):
        calls.append(n)
        return original(params, n)

    for module in (nhjc, nhjc.spectrum, nhjc.texture, nhjc.topology, nhjc.sweep,
                   nhjc.boundaries, nhjc.verify):
        if getattr(module, "block_quantities", None) is original:
            monkeypatch.setattr(module, "block_quantities", counted)
    columns = ("thetaT", "deltaMinus", "deltaPlus", "imE", "CtZ", "CtY")
    # the node sets of a winding column read the row's block too
    for observables in (columns, columns + ("nWzx",)):
        calls.clear()
        spec = small_spec(axes=(Axis("Gamma", 0.0, 0.12, 7), Axis("g", 0.001, 0.1, 5)),
                          levels=(LevelIndex(1, -1), LevelIndex(2, -1), LevelIndex(3, 1)),
                          observables=observables, overlays=(), spot_check_fraction=0.0)
        result = run_sweep(spec)
        assert len(result.rows) == 7 * 5 * 3
        assert len(calls) <= 3 * len(result.rows)


def test_cy_margin_is_normalised_by_cy_terms():
    params, level = DRAW_122, LevelIndex(8, -1)
    bq = block_quantities(params, 8)
    coeffs = texture_coefficients(params, level)
    c = params.composites()
    g, Gamma = params.g, params.Gamma
    scale_cy = (abs(Gamma * c.d_Omega_omega) + abs(g * c.d_kappa_gamma)
                + 2.0 * bq.R * (abs(g) + abs(Gamma)))
    margin = boundary_margin(params, [8], etas=(-1,))
    assert margin == pytest.approx(abs(coeffs.c_y) / scale_cy, rel=1e-12)
    assert boundary_margin(params, range(1, 9)) == margin >= BOUNDARY_MARGIN


def test_on_boundary_and_boundary_margin_share_normalisers():
    # 401 points within 2e-8 of the SI point; some of them are closer than
    # 1e-9 to it in units of Cy's terms but not in units of Cz's terms
    si = boundary_SI(DRAW_122, "gamma").value
    level = LevelIndex(8, -1)
    spec = SweepSpec(base=DRAW_122, axes=(Axis("gamma", si - 2e-8, si + 2e-8, 401),),
                     levels=(level,), observables=("CtY",))
    result = run_sweep(spec)
    flags = [row[result.columns.index("on_boundary")] for row in result.rows]
    margins = [boundary_margin(DRAW_122.with_value("gamma", row[0]), [8], etas=(-1,))
               for row in result.rows]
    assert any(flags) and not all(flags)
    assert [bool(f) for f in flags] == [m < 1e-9 for m in margins]
