import dataclasses
import itertools
import json
import math
import random
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nhjc
from nhjc import (
    Axis,
    DegenerateStateError,
    GridTooCoarseError,
    LevelIndex,
    ModelParams,
    SweepSpec,
    SweepSpecError,
    UndefinedTiltError,
    ValidationError,
    block_quantities,
    boundary,
    eigen_solution,
    gaps,
    hermite_roots,
    nodes,
    run_sweep,
    texture_coefficients,
    tilting_angle,
    winding_report,
)
from nhjc.params import SAMPLE_BUDGET, SCALAR_SAMPLES, ParamGrid
from nhjc.sweep import OBSERVABLES, WINDINGS
from nhjc.verify import BOUNDARY_MARGIN, boundary_margin
from conftest import make_reference
from reference_boundaries import reference_overlay
from reference_verify import node_sum

# the grid points, CSV rows and spot-check picks a sweep holds at once
GRID_BLOCK = SAMPLE_BUDGET // SCALAR_SAMPLES

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
    overlay_r = result.overlays["R"]
    assert tuple(overlay_r) == ("g", "n", "Gamma", "valid")
    assert all(len(column) == 3 for column in overlay_r.values())  # one per g sample for the single level
    assert tuple(result.overlays["SI"]) == ("g", "Gamma", "valid")
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

    overlay_r = result.overlays["R"]
    (gamma_r, valid_r) = overlay_r["Gamma"][0], overlay_r["valid"][0]
    assert valid_r
    at_r, local = interpolate(gamma_r)
    assert at_r <= 10.0 * local
    at_gr, _ = interpolate(result.overlays["GR"]["Gamma"][0])
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
    gamma_si = result.overlays["SI"]["gamma"][0]
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
    from nhjc import SweepConsistencyError

    monkeypatch.setattr(nhjc.topology.Windings, "integrals", lambda self, planes: {
        plane: (np.full(len(self.x_nodes[0]), 99), np.zeros(len(self.x_nodes[0]))) for plane in planes})
    spec = small_spec(axes=(Axis("Gamma", 0.001, 0.03, 4),),
                      observables=("nWzx",), overlays=(), spot_check_fraction=1.0)
    with pytest.raises(SweepConsistencyError, match="row"):
        run_sweep(spec)


def test_spot_check_error_names_its_grid_point(monkeypatch):
    # shifted sigma_x nodes leave the node sums right, but the integral's
    # grid then misses the squeezed passage of the loop near Gamma_GR
    original = nhjc.texture.ratio_roots
    monkeypatch.setattr(nhjc.texture, "ratio_roots", lambda n, c: original(n, c) + 0.05)
    spec = small_spec(axes=(Axis("Gamma", 0.0, 0.12, 25),), observables=("nWzx",), overlays=(),
                      spot_check_fraction=0.0)
    run_sweep(spec)
    with pytest.raises(GridTooCoarseError, match=r"in plane zx .* \(at Gamma=0\.015, n=2, eta=-1\)$"):
        run_sweep(dataclasses.replace(spec, spot_check_fraction=1.0))


def test_the_spot_check_solves_one_block_of_picks_at_a_time(monkeypatch):
    # its memory is bounded at any fraction: the sigma_x node solve of a
    # Windings spans its points, so no Windings spans more than a block
    sizes, integrals = [], nhjc.topology.Windings.integrals
    monkeypatch.setattr(nhjc.topology.Windings, "integrals",
                        lambda self, planes: sizes.append(len(self.rho)) or integrals(self, planes))
    spec = small_spec(axes=(Axis("Gamma", 0.001, 0.03, 2 * GRID_BLOCK + 100),), levels=(LevelIndex(1),),
                      observables=("nWzx",), overlays=(), spot_check_fraction=1.0)
    result = run_sweep(spec)
    checked = sum(not math.isnan(row[result.columns.index("nWzx")]) for row in result.rows)
    assert checked > 2 * GRID_BLOCK and sizes == [GRID_BLOCK, GRID_BLOCK, checked - 2 * GRID_BLOCK]


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
    overlay = result.overlays["SI"]
    assert tuple(overlay) == ("Gamma", "g", "gamma", "valid")
    assert all(len(column) == 3 * 2 for column in overlay.values())
    full = run_sweep(dataclasses.replace(spec, volumetric=True))
    assert len(full.rows) == 3 * 3 * 2


def test_block_kernel_runs_at_most_three_times_per_row(evaluations):
    # a row needs blocks n-1, n and n+1 at most; count every evaluation of
    # the kernel whichever module asks for it
    calls = evaluations
    columns = ("thetaT", "deltaMinus", "deltaPlus", "imE", "CtZ", "CtY")
    # the node sets of a winding column read the row's block too
    for observables in (columns, columns + ("nWzx",)):
        calls.clear()
        spec = small_spec(axes=(Axis("Gamma", 0.0, 0.12, 7), Axis("g", 0.001, 0.1, 5)),
                          levels=(LevelIndex(1, -1), LevelIndex(2, -1), LevelIndex(3, 1)),
                          observables=observables, overlays=(), spot_check_fraction=0.0)
        result = run_sweep(spec)
        assert len(result.rows) == 7 * 5 * 3
        assert calls
        assert len(calls) <= 3 * len(result.rows)


def test_a_delta_minus_level_evaluates_block_n_alone(evaluations):
    # deltaMinus reads block n only; deltaPlus adds blocks n-1 and n+1
    axes = (Axis("Gamma", 0.0, 0.12, 40), Axis("g", 0.001, 0.1, 30))  # 1 200 points: two grid blocks
    for observables, per_block in ((("deltaMinus",), [2]), (("deltaPlus",), [2, 1, 3]),
                                   (("thetaT", "deltaMinus", "deltaPlus"), [2, 1, 3])):
        evaluations.clear()
        run_sweep(small_spec(axes=axes, observables=observables, overlays=(), spot_check_fraction=0.0))
        assert [n for n, _ in evaluations] == 2 * per_block, observables


def test_only_the_spot_check_solves_sigma_x_nodes(monkeypatch):
    # the node sums read the order of the nodes, which n alone fixes: on the
    # shipped plane the sigma_x node solve runs for the spot-check points
    # only, one -rho and one +rho matrix for each
    spec = SweepSpec.load(Path(__file__).resolve().parent.parent / "configs" / "sweep_gamma_g_plane.json")
    for n in (1, 2):
        hermite_roots(n)  # cached from here on: its own solve is not the sweep's
    solved, matrices = [], []
    ratio_roots, eigvalsh = nhjc.texture.ratio_roots, np.linalg.eigvalsh
    monkeypatch.setattr(nhjc.texture, "ratio_roots", lambda n, c: solved.append(len(c)) or ratio_roots(n, c))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: matrices.append(len(a)) or eigvalsh(a))
    result = run_sweep(spec)
    checked = sum(not math.isnan(row[result.columns.index("nWzx")]) for row in result.rows)
    spots = max(1, round(spec.spot_check_fraction * checked))
    assert checked > 12000 and sum(solved) == spots and sum(matrices) == 2 * spots
    solved.clear()
    matrices.clear()
    run_sweep(dataclasses.replace(spec, spot_check_fraction=0.0))
    assert solved == matrices == []


def test_cy_margin_is_normalised_by_cy_terms():
    params, level = DRAW_122, LevelIndex(8, -1)
    bq = block_quantities(params, 8)
    coeffs = texture_coefficients(params, level)
    c = params.composites()
    g, Gamma = params.g, params.Gamma
    scale_cy = (abs(Gamma * c.d_Omega_omega) + abs(g * c.d_kappa_gamma)
                + 2.0 * bq.R * (abs(g) + abs(Gamma)))
    grid = ParamGrid.rows([params])
    margin = boundary_margin(grid, [8], etas=(-1,)).item()
    assert margin == pytest.approx(abs(coeffs.c_y) / scale_cy, rel=1e-12)
    assert boundary_margin(grid, range(1, 9)).item() == margin >= BOUNDARY_MARGIN


def test_on_boundary_and_boundary_margin_share_normalisers():
    # 401 points within 2e-8 of the SI point; some of them are closer than
    # 1e-9 to it in units of Cy's terms but not in units of Cz's terms
    si = boundary(DRAW_122, "SI", 1, "gamma").value
    level = LevelIndex(8, -1)
    spec = SweepSpec(base=DRAW_122, axes=(Axis("gamma", si - 2e-8, si + 2e-8, 401),),
                     levels=(level,), observables=("CtY",))
    result = run_sweep(spec)
    flags = [row[result.columns.index("on_boundary")] for row in result.rows]
    grid = ParamGrid.rows([DRAW_122.with_value("gamma", row[0]) for row in result.rows])
    margins = boundary_margin(grid, [8], etas=(-1,)).ravel().tolist()
    assert any(flags) and not all(flags)
    assert [bool(f) for f in flags] == [m < 1e-9 for m in margins]


def _scalar_row(params, level, observables):
    """The observables and flags of one grid point, one public scalar call at
    a time: the per-point reference for the grid evaluation. It reads nothing
    of the sweep's table: a column it has no branch for fails at a regular point."""
    nan = math.nan
    if level.n == 0:
        im_energy = eigen_solution(params, level).im_energy
        return [im_energy if o == "imE" else 0 if o in ("nWzx", "nWyx") else nan
                for o in observables] + [True, False, False]
    bq = block_quantities(params, level.n)
    if bq.exceptional:
        known = {"imE": -(level.n - 0.5) * params.kappa, "deltaMinus": 0.0,
                 "deltaPlus": gaps(params, level.n).delta_plus}
        return [known.get(o, nan) for o in observables] + [False, True, False]
    try:
        coeffs = texture_coefficients(params, level)
    except DegenerateStateError:
        return [nan] * len(observables) + [True, False, False]
    on_boundary = min(bq.distances(coeffs.c_z, coeffs.c_y)) < 1e-9
    gp = gaps(params, level.n)
    row = []
    for o in observables:
        if o == "thetaT":
            try:
                row.append(tilting_angle(coeffs).theta_t)
            except UndefinedTiltError:
                row.append(nan)
        elif o in ("nWzx", "nWyx"):
            row.append(nan if on_boundary else node_sum(nodes(params, level, o[2]), nodes(params, level, "x")))
        else:
            row.append({"deltaMinus": gp.delta_minus, "deltaPlus": gp.delta_plus,
                        "imE": eigen_solution(params, level).im_energy,
                        "CtZ": coeffs.c_z, "CtY": coeffs.c_y}[o])
    return row + [False, False, on_boundary]


def _bits(value):
    """A cell's type and exact bits (every nan alike)."""
    if isinstance(value, float):
        return float, "nan" if math.isnan(value) else struct.pack("<d", value)
    return type(value), value


GR_2 = make_reference(Gamma=0.0).g * 0.1 / 0.3  # gapped-reversal Gamma of the reference, n = 2
# omega = Omega, Gamma = 0: g = 0 is degenerate and g = |kappa - gamma|/2 = 0.2
# is the exceptional point of block 1
EP_BASE = ModelParams(omega=1.0, Omega=1.0, g=0.1, kappa=0.5, gamma=0.1)
GRID_CASES = {
    "R, GR": (make_reference(Gamma=0.0), (Axis("Gamma", 0.001, 0.12, 49),)),
    "on GR": (make_reference(Gamma=0.0), (Axis("Gamma", GR_2 - 1e-12, GR_2 + 1e-12, 3),)),
    "SI": (make_reference(Gamma=0.05), (Axis("gamma", 0.0, 1.2, 41),)),
    "EP, degenerate": (EP_BASE, (Axis("g", 0.0, 0.4, 5),)),
    "plane": (make_reference(Gamma=0.0), (Axis("Gamma", 0.0, 0.12, 7), Axis("g", 0.0, 0.1, 6))),
    "volume": (make_reference(Gamma=0.05), (Axis("gamma", 0.1, 1.0, 3), Axis("Gamma", 0.0, 0.1, 3),
                                            Axis("g", 0.0, 0.06, 2))),
}
GRID_LEVELS = (LevelIndex(0), LevelIndex(1, -1), LevelIndex(1, 1), LevelIndex(2, -1),
               LevelIndex(2, 1), LevelIndex(5, -1))


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_evaluation_matches_scalar_api(case):
    base, axes = GRID_CASES[case]
    spec = SweepSpec(base=base, axes=axes, levels=GRID_LEVELS, observables=OBSERVABLES,
                     spot_check_fraction=0.0, volumetric=True)
    result = run_sweep(spec)
    expected = []
    for point in itertools.product(*(a.values().tolist() for a in axes)):
        params = base
        for axis, value in zip(axes, point):
            params = params.with_value(axis.name, value)
        for level in GRID_LEVELS:
            expected.append([*point, level.n, level.eta, *_scalar_row(params, level, OBSERVABLES)])
    assert [list(map(_bits, row)) for row in result.rows] == [list(map(_bits, row)) for row in expected]


def test_grid_cases_reach_every_kind_of_row():
    flags = set()
    for base, axes in GRID_CASES.values():
        spec = SweepSpec(base=base, axes=axes, levels=GRID_LEVELS, observables=("imE",),
                         volumetric=True)
        flags.update(tuple(row[-3:]) for row in run_sweep(spec).rows if row[len(axes)] > 0)
    # degenerate, exceptional and on_boundary points, and regular ones
    assert flags == {(True, False, False), (False, True, False), (False, False, True),
                     (False, False, False)}


def test_a_window_around_an_exceptional_point_flags_only_the_point(capsys):
    # block 1 of EP_BASE is exceptional at g = 0.2 (A = g^2 - 0.04, B = 0):
    # below it the state sits on the reversal line (B = 0 under A < 0)
    levels = (LevelIndex(1, -1), LevelIndex(1, 1), LevelIndex(2, -1))
    spec = SweepSpec(base=EP_BASE, axes=(Axis("g", 0.2 - 1e-6, 0.2 + 1e-6, 5),), levels=levels,
                     observables=("nWzx", "nWyx"), overlays=(), spot_check_fraction=1.0)
    rows = run_sweep(spec).rows
    assert len(rows) == 15 and sorted({row[0] for row in rows})[2] == 0.2
    for g, n, eta, zx, yx, degenerate, exceptional, on_boundary in rows:
        assert not degenerate
        assert exceptional == (g == 0.2 and n == 1)
        assert on_boundary == (g < 0.2 and n == 1)
        if exceptional or on_boundary:
            assert math.isnan(zx) and math.isnan(yx)
            continue
        reports = winding_report(EP_BASE.with_value("g", g), LevelIndex(n, eta), ("zx", "yx")).values()
        assert all(report["agreement"] for report in reports)
        assert (zx, yx) == tuple(report["node_sum"] for report in reports)
    assert capsys.readouterr() == ("", "")


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _valid_or(valid, other=_json):
    """Mostly the valid value, otherwise anything JSON holds."""
    return st.just(valid) | st.just(valid) | other


_number = _valid_or(0.05, st.integers(-3, 300) | st.floats() | st.integers() | _json)
VALID_SPEC = {"params": {"omega": 0.9, "Omega": 1.0, "g_rel": 0.1},
              "axes": [{"name": "Gamma", "min": 0.0, "max": 0.1, "count": 3}],
              "levels": [{"n": 1}]}
_spec_dicts = st.fixed_dictionaries(
    {
        "params": _valid_or(VALID_SPEC["params"], st.dictionaries(
            st.sampled_from(["omega", "Omega", "g", "g_rel", "kappa", "gamma", "Gamma"]), _number)),
        "axes": _valid_or(VALID_SPEC["axes"], st.lists(st.fixed_dictionaries(
            {"name": _valid_or("Gamma", st.sampled_from(["g", "omega", "Omega", "x"]) | _json),
             "min": _number, "max": _valid_or(0.2, _number), "count": _valid_or(3, _number)}),
            max_size=4) | _json),
        "levels": _valid_or(VALID_SPEC["levels"], st.lists(st.fixed_dictionaries(
            {"n": _valid_or(1, _number)}, optional={"eta": _number}), max_size=3) | _json),
    },
    optional={
        "observables": _valid_or(["thetaT"], st.lists(st.sampled_from(OBSERVABLES + ("x",))) | _json),
        "overlays": _valid_or(["R"]),
        "spot_check_fraction": _number,
        "volumetric": _valid_or(None),
    },
)


@given(data=_spec_dicts | _json)
@example(data=dict(VALID_SPEC, spot_check_fraction=math.nan))
@example(data=dict(VALID_SPEC, axes=[{"name": "Gamma", "min": 0.0, "max": 0.1, "count": math.inf}]))
@example(data=dict(VALID_SPEC, axes=[{"name": "Gamma", "min": 0.0, "max": 10 ** 400, "count": 3}]))
@example(data=dict(VALID_SPEC, params={"omega": 0.9, "Omega": 1.0, "g": 10 ** 400}))
@example(data=dict(VALID_SPEC, axes=[{"name": "Gamma", "min": 0.0, "max": 0.1, "count": 10 ** 5000}]))
@example(data=dict(VALID_SPEC, axes=[{"name": "Gamma", "min": "0.0", "max": 0.1, "count": 3}]))
@example(data=dict(VALID_SPEC, observables=10 ** 5000))  # no repr: int() stops at 4 300 digits
@example(data=dict(VALID_SPEC, levels=10 ** 5000))
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("ignore::nhjc.errors.NegativeRateWarning")  # drawn rates may be negative
def test_malformed_specs_raise_spec_or_validation_errors(data):
    try:
        spec = SweepSpec.from_dict(data)
    except (SweepSpecError, ValidationError):
        return
    assert 0.0 <= spec.spot_check_fraction <= 1.0

    # what was accepted was read from JSON numbers in float range, integers
    # for counts and levels, as parameter files are
    def number(value, kind=(int, float)):
        return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max

    assert all(number(a["min"]) and number(a["max"]) and number(a["count"], int) for a in data["axes"])
    assert all(number(l["n"], int) and number(l.get("eta", -1), int) for l in data["levels"])
    assert number(data.get("spot_check_fraction", 0.01))


# sampled axes through every zero denominator: g = 0, Gamma = 0, kappa =
# gamma (kappa from 0 to 0.4 with gamma = 0.2) and omega = Omega (omega from
# 0.5 to 1.5 with Omega = 1)
OVERLAY_CASES = {
    "one axis": (make_reference(Gamma=0.0), (Axis("Gamma", 0.0, 0.12, 5),)),
    "g, Gamma zero": (make_reference(Gamma=0.0), (Axis("Gamma", 0.0, 0.12, 4), Axis("g", 0.0, 0.1, 5))),
    "kappa = gamma": (make_reference(), (Axis("g", 0.0, 0.1, 3), Axis("kappa", 0.0, 0.4, 5),
                                         Axis("Gamma", 0.0, 0.1, 3))),
    "omega = Omega": (make_reference(), (Axis("omega", 0.5, 1.5, 5), Axis("kappa", 0.0, 1.2, 4),
                                         Axis("g", 0.0, 0.1, 3))),
    "Gamma through kappa = gamma": (make_reference(), (Axis("kappa", 0.0, 0.4, 5), Axis("Gamma", 0.0, 0.2, 3))),
    "gamma": (make_reference(Gamma=0.05), (Axis("gamma", 0.0, 1.2, 7), Axis("g", 0.005, 0.2, 4))),
    "no closed form": (make_reference(), (Axis("omega", 0.5, 1.5, 3),)),
}


@pytest.mark.parametrize("levels", [GRID_LEVELS, (LevelIndex(0),), (LevelIndex(3, 1), LevelIndex(1, -1))])
@pytest.mark.parametrize("case", sorted(OVERLAY_CASES))
def test_overlays_match_the_scalar_reference(case, levels):
    base, axes = OVERLAY_CASES[case]
    spec = SweepSpec(base=base, axes=axes, levels=levels, observables=("thetaT",))
    dtypes = {"n": np.dtype(int), "valid": np.dtype(bool)}
    for family in ("R", "GR", "SI"):
        table = nhjc.sweep._overlay(spec, family)
        expected_columns, expected = reference_overlay(spec, family)
        assert tuple(table) == expected_columns
        cells = list(zip(*expected)) or [()] * len(expected_columns)
        for name, column, reference in zip(expected_columns, table.values(), cells):
            assert column.dtype.kind == "U" if name == "note" else column.dtype == dtypes.get(name, np.float64)
            assert list(map(_bits, column.tolist())) == list(map(_bits, reference)), name


def test_overlay_kernel_calls_do_not_grow_with_the_samples(evaluations):
    # one block per level for R (its validity), none for GR and SI
    calls = evaluations
    counts = []
    for samples in (3, 41):
        calls.clear()
        spec = small_spec(axes=(Axis("Gamma", 0.0, 0.12, samples), Axis("g", 0.001, 0.1, samples),
                                Axis("gamma", 0.0, 1.2, samples)),
                          levels=(LevelIndex(1, -1), LevelIndex(2, -1)))
        result = run_sweep(spec)
        assert all(len(column) == 2 * samples ** 2 for column in result.overlays["R"].values())
        counts.append(len(calls))
    assert counts == [2, 2]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_overlay_values_lie_in_the_cells_where_the_direction_flips(n):
    # Gamma_GR = 0.016 and Gamma_R(n) = 10 Gamma_GR / n on a 2 001-point axis
    # whose points 80 and 800/n lie on them: each boundary value lies in a
    # cell across which thetaT and nWzx change sign, every such cell holds
    # one, and the on_boundary rows are the points inside those cells; the
    # integral route re-derives every winding row
    spec = SweepSpec(base=make_reference(Gamma=0.0), axes=(Axis("Gamma", 0.0, 25 * GR_2, 2001),),
                     levels=(LevelIndex(n, -1),), observables=("thetaT", "nWzx"), overlays=("R", "GR"),
                     spot_check_fraction=1.0)
    result = run_sweep(spec)
    gamma, theta, winding, on_boundary = (
        np.array([row[result.columns.index(c)] for row in result.rows], dtype=float)
        for c in ("Gamma", "thetaT", "nWzx", "on_boundary"))
    values = [value for family in ("R", "GR")
              for value in result.overlays[family]["Gamma"][result.overlays[family]["valid"]].tolist()]
    assert len(values) == 2
    defined = np.flatnonzero(~np.isnan(winding))
    cells = list(zip(defined[:-1], defined[1:]))
    flips = [(i, j) for i, j in cells if np.sign(winding[i]) != np.sign(winding[j])]
    assert flips == [(i, j) for i, j in cells if np.sign(theta[i]) != np.sign(theta[j])]
    assert sorted(flips) == sorted(next((i, j) for i, j in flips if gamma[i] <= v <= gamma[j])
                                   for v in values)
    inside = {k for i, j in flips for k in range(i + 1, j)}
    assert set(np.flatnonzero(on_boundary == 1)) == inside == {80, 800 // n}
    assert set(np.flatnonzero(np.isnan(winding))) == inside


# --- the CSV writer ---

def _reference_cell(value) -> str:
    """The writer's cell as it was formatted a column at a time, with a str
    written as it is."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _reference_column(values) -> list[str]:
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map("{:.17g}".format, values))
    if kinds == {bool}:
        return ["1" if v else "0" for v in values]
    if kinds == {int}:
        return list(map(str, values))
    return list(map(_reference_cell, values))


def _reference_csv(columns, rows) -> str:
    """Oracle for csvtext.csv_table: every column formatted on its own, then
    joined row by row."""
    cells = [_reference_column(column) for column in zip(*rows)]
    return "".join(",".join(row) + "\n" for row in [columns] + list(zip(*cells)))


_EDGE_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-310, 1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345680.0, -1.5e-7]


def _random_column(rng: random.Random, kind: str, count: int) -> list:
    if kind == "float":
        return [rng.choice(_EDGE_FLOATS) if rng.random() < 0.3
                else struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(count)]
    if kind == "bool":
        return [rng.random() < 0.5 for _ in range(count)]
    if kind == "int":
        return [rng.randint(-200, 200) for _ in range(count)]
    if kind == "int/nan":  # a winding column: integers, nan off the checked points
        return [math.nan if rng.random() < 0.3 else rng.choice([-200, -3, -1, 1, 2, 200]) for _ in range(count)]
    return [rng.choice(["no closed-form axis for overlay", "", "a b"]) for _ in range(count)]


def test_csv_writer_matches_the_column_formatter():
    """Seeded tables of every cell kind a sweep writes (floats with nan,
    +-0, +-inf and subnormals, bools, ints, int/nan columns, str), as lists
    and as the arrays of an overlay, are written by csv_table byte for byte
    as the column-at-a-time formatter writes them."""
    from nhjc.csvtext import csv_table

    rng = random.Random(20240901)
    for _ in range(200):
        kinds = [rng.choice(["float", "bool", "int", "int/nan", "str"]) for _ in range(rng.randint(1, 8))]
        count = rng.choice([0, 1, 2, 5, 130])
        columns = tuple(f"c{i}" for i in range(len(kinds)))
        cells = [_random_column(rng, kind, count) for kind in kinds]
        rows = list(zip(*cells))
        for table in (dict(zip(columns, cells)), {c: np.array(cell) for c, cell in zip(columns, cells)}):
            assert csv_table(table).decode() == _reference_csv(columns, rows)


WRITER_CASES = {  # 1-, 2- and 3-axis tables past the 1 024-row block, n = 0 among the levels
    "1 axis": ((Axis("Gamma", -0.0, 0.1, 700),), (LevelIndex(0), LevelIndex(2, -1))),
    "2 axes": ((Axis("Gamma", 0.0, 0.12, 41), Axis("g", 0.001, 0.1, 13)),
               (LevelIndex(1, 1), LevelIndex(0), LevelIndex(5, -1))),
    "3 axes": ((Axis("gamma", 0.1, 1.0, 11), Axis("Gamma", 0.0, 0.1, 10), Axis("g", 0.0, 0.06, 5)),
               (LevelIndex(0), LevelIndex(3, -1), LevelIndex(1, -1))),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_the_column_writer_matches_the_column_formatter(tmp_path, case):
    """The grid table's CSV, written a block of rows at a time from its
    columns, is byte for byte what the per-row formatter writes for the rows
    an independent loop builds: for a seeded table of every cell kind (floats
    with nan, +-0, +-inf and subnormals, int/nan windings, bool flags), and
    for the sweep itself."""
    from nhjc.sweep import FLAG_COLUMNS, SweepResult

    axes, levels = WRITER_CASES[case]
    spec = SweepSpec(base=make_reference(Gamma=0.05), axes=axes, levels=levels, observables=OBSERVABLES,
                     spot_check_fraction=0.0, volumetric=True)
    columns = tuple(a.name for a in axes) + ("n", "eta") + OBSERVABLES + FLAG_COLUMNS
    size = math.prod(a.count for a in axes) * len(levels)
    rng = random.Random(20240901)
    kinds = {**dict.fromkeys(WINDINGS, "int/nan"), **dict.fromkeys(FLAG_COLUMNS, "bool")}
    drawn = zip(*(_random_column(rng, kinds.get(name, "float"), size) for name in OBSERVABLES + FLAG_COLUMNS))
    points = itertools.product(*(a.values().tolist() for a in axes))
    rows = [(*point, level.n, level.eta, *next(drawn)) for point in points for level in levels]
    table = {name: np.array(column) for name, column in zip(columns, zip(*rows))}
    result = SweepResult(spec=spec, table=table)
    assert result.columns == columns
    assert size > 1024 and [list(map(_bits, row)) for row in result.rows] == [list(map(_bits, row)) for row in rows]
    for result in (result, run_sweep(spec)):
        result.to_csv(tmp_path / "table.csv")
        assert (tmp_path / "table.csv").read_text(encoding="utf-8") == _reference_csv(columns, result.rows)


@pytest.mark.parametrize("axes", [
    (Axis("Gamma", 0.0, 0.12, 45), Axis("g", 0.001, 0.1, 29)),  # R, GR and SI overlays
    (Axis("omega", 0.8, 1.0, 1100),),  # no closed-form axis: each overlay holds the note
])
def test_a_table_past_two_blocks_and_its_overlays_match_the_cell_formatter(tmp_path, axes):
    """A sweep of more than two GRID_BLOCK blocks of rows with every
    observable and overlay: the table and each overlay file are what the
    column-at-a-time formatter writes for its rows."""
    spec = SweepSpec(base=make_reference(Gamma=0.05), axes=axes, levels=(LevelIndex(2, -1), LevelIndex(0)),
                     observables=OBSERVABLES, overlays=("R", "GR", "SI"), spot_check_fraction=0.0)
    result = run_sweep(spec)
    assert len(result.rows) > 2 * GRID_BLOCK
    result.to_csv(tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == _reference_csv(result.columns, result.rows)
    for family, table in result.overlays.items():
        columns, rows = tuple(table), list(zip(*(column.tolist() for column in table.values())))
        assert len(rows) == (1 if columns == ("note",) else 29)  # R: one curve, for n = 2
        text = (tmp_path / f"table.csv.overlay.{family}.csv").read_text(encoding="utf-8")
        assert text == _reference_csv(columns, rows)


def test_an_overlay_without_a_closed_form_axis_writes_its_note(tmp_path):
    """An omega-only sweep has no axis to solve a boundary for: each overlay
    file holds the note, in CSV and in JSON."""
    spec = small_spec(axes=(Axis("omega", 0.8, 1.0, 3),), observables=("thetaT",))
    result = run_sweep(spec)
    result.to_csv(tmp_path / "out.csv")
    result.to_json(tmp_path / "out.json")
    for family in ("R", "GR", "SI"):
        note = (tmp_path / f"out.csv.overlay.{family}.csv").read_text(encoding="utf-8")
        assert note == "note\nno closed-form axis for overlay\n"
    overlays = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["overlays"]
    assert overlays == {family: {"columns": ["note"], "rows": [["no closed-form axis for overlay"]]}
                        for family in ("R", "GR", "SI")}
    assert len((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()) == 1 + 3


def test_the_shipped_plane_maps_only_functions_numpy_cannot_match(monkeypatch):
    """The math functions the shipped (Gamma, g) plane maps over its grids,
    by caller: the main pass maps only atan2, hypot and atan (no ufunc gives
    their bits); the spot check and the overlays only atan2 and hypot, since
    every square is one multiply; and the degeneracy test maps nothing."""
    maps = []

    def counted(apply):
        cells = dict(zip(apply.__code__.co_freevars, (c.cell_contents for c in apply.__closure__)))
        fn = cells["fn"]

        def run(*args):
            if isinstance(args[0], np.ndarray) and not cells["ufunc"]:
                callers, frame = [], sys._getframe(1)
                while frame:
                    callers.append(frame.f_code.co_name)
                    frame = frame.f_back
                maps.append((f"{fn.__module__}.{fn.__name__}", callers, args[0].size))
            return apply(*args)
        return run

    for module in (nhjc.params, nhjc.spectrum, nhjc.boundaries, nhjc.texture, nhjc.topology, nhjc.sweep):
        for name, value in list(vars(module).items()):
            if getattr(value, "__qualname__", "") == "elementwise.<locals>.apply":
                monkeypatch.setattr(module, name, counted(value))
    spec = SweepSpec.load(Path(__file__).resolve().parent.parent / "configs" / "sweep_gamma_g_plane.json")
    result = run_sweep(spec)

    def mapped(caller):
        return {name for name, callers, _ in maps if caller in callers}

    assert mapped("_level_columns") == {"math.atan2", "math.hypot", "math.atan"}
    # atan2 and hypot of block n and atan of the tilt: deltaMinus reads no neighbour block
    assert sum(size for _, callers, size in maps if "_level_columns" in callers) == 3 * len(result.rows)
    assert mapped("_spot_check") == {"math.atan2", "math.hypot"}
    assert mapped("_overlay") == {"math.atan2", "math.hypot"}
    assert not mapped("branch_solution")
    # nothing else is mapped anywhere in the run: no square at all
    assert {name for name, _, _ in maps} == {"math.atan2", "math.hypot", "math.atan"}


def test_a_repeated_observable_or_overlay_is_rejected_and_the_columns_are_the_tables():
    # ("thetaT", "imE", "thetaT") ran: columns listed 9 names against rows of
    # 8 values, and the CSV header and rows repeated thetaT
    spec = dict(base=make_reference(), axes=(Axis("Gamma", 0.0, 0.05, 3),), levels=(LevelIndex(1),))
    with pytest.raises(SweepSpecError, match=r"^each observable may be named once, got \['thetaT', 'imE', 'thetaT'\]$"):
        SweepSpec(**spec, observables=("thetaT", "imE", "thetaT"))
    with pytest.raises(SweepSpecError, match=r"^each overlay family may be named once, got \['R', 'R'\]$"):
        SweepSpec(**spec, observables=("thetaT",), overlays=("R", "R"))
    result = run_sweep(SweepSpec(**spec, observables=("imE", "thetaT")))
    assert result.columns == tuple(result.table) == ("Gamma", "n", "eta", "imE", "thetaT",
                                                     "degenerate", "exceptional", "on_boundary")
    assert {len(row) for row in result.rows} == {len(result.columns)}


def test_a_new_column_is_one_row_of_the_table(monkeypatch, tmp_path):
    # a scratch column, Re E of the branch solution, with a constant at
    # exceptional points and a function at n = 0: the row alone puts it in the
    # spec, the CSV and the JSON, and its flagged values are the row's
    spec = dict(base=EP_BASE, axes=(Axis("g", 0.0, 0.4, 5),), levels=(LevelIndex(0), LevelIndex(1, -1)))
    with pytest.raises(SweepSpecError, match="unknown observable 'reE'"):
        SweepSpec(**spec, observables=("reE",))
    monkeypatch.setitem(nhjc.sweep._COLUMNS, "reE", ("real part of the eigenenergy", "", lambda at: at.sol.re_energy,
                                                     123.0, lambda at: eigen_solution(at.grid, at.level).re_energy))
    result = run_sweep(SweepSpec(**spec, observables=("thetaT", "reE")))
    result.to_csv(tmp_path / "out.csv")
    result.to_json(tmp_path / "out.json")
    columns = ["g", "n", "eta", "thetaT", "reE", "degenerate", "exceptional", "on_boundary"]
    assert (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[0] == ",".join(columns)
    payload = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert payload["columns"] == columns and len(payload["rows"]) == len(result.rows) == 10
    kinds = set()
    for g, n, eta, _, re_energy, degenerate, exceptional, _ in result.rows:
        kind = "n = 0" if n == 0 else "exceptional" if exceptional else "degenerate" if degenerate else "regular"
        if kind in ("n = 0", "regular"):
            expected = eigen_solution(EP_BASE.with_value("g", g), LevelIndex(n, eta)).re_energy
        else:
            expected = 123.0 if exceptional else math.nan
        assert _bits(re_energy) == _bits(expected), (g, n, kind)
        kinds.add(kind)
    assert kinds == {"n = 0", "exceptional", "degenerate", "regular"}
