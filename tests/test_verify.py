import math
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nhjc
import nhjc.boundaries
import nhjc.spectrum
import nhjc.sweep
import nhjc.texture
import nhjc.topology
import nhjc.verify
from nhjc import GridTooCoarseError, LevelIndex, ModelParams, NhjcError, eigen_solution
from nhjc.cli import main
from nhjc.errors import DegenerateStateError, NodeCountError
from nhjc.oscillator import hermite_roots
from nhjc.params import PARAM_NAMES, ParamGrid, reference_config
from nhjc.sweep import SweepSpec, run_sweep
from nhjc.verify import (
    _CHECKS,
    DEFAULT_SEED,
    _reversal_residuals,
    boundary_margin,
    draw_sets,
    run_suite,
)
from reference_verify import (check_winding, reference_draw, reference_margin, reference_suite, reversal_identity,
                              theta_at_gamma)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BATCHED = ("eigen", "dual-route", "parity", "hermitian", "winding", "tilting")


def run_check(key, draws, n_max):
    """The table's check at the levels run_suite gives it for n_max."""
    check = _CHECKS[key]
    return check(draws, check.levels(n_max))


def seeded_draws(count, n_max, seed=DEFAULT_SEED):
    """The first `count` draws of run_suite's seeded sequence, as a grid; its
    winding draws are the first max(4, draws // 4) of them."""
    return draw_sets(np.random.default_rng(seed), count, n_max)


def records(grid):
    """The draws of a grid as ModelParams, one per row."""
    return [grid.point(i) for i in range(grid.g.size)]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7, 11])
@pytest.mark.parametrize("draws, n_max, quick", [(12, 4, False), (50, 8, False), (200, 8, True)])
def test_suite_matches_the_scalar_reference(seed, draws, n_max, quick):
    results = run_suite(draws, n_max, seed, quick)
    assert results == reference_suite(draws, n_max, seed, quick)
    assert all(result.passed for result in results)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7, 11])
def test_suite_emits_no_warning(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(result.passed for result in run_suite(12, 4, seed))


def test_winding_laws_hold_on_margin_draws_up_to_n_25():
    # 24 draws x n = 1..25 x eta = +-1: 1 200 node-sum cases, two planes each,
    # every draw at the boundary margin for all 25 levels
    draws = draw_sets(np.random.default_rng(DEFAULT_SEED), 24, n_max=25)
    result = _CHECKS["winding"](draws, range(1, 26))
    assert result.passed, result.detail
    assert result.detail.startswith("2400 cases: method mismatches 0, |n_w|=n True")


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7, 11])
@pytest.mark.parametrize("n_max, margin", [(1, 1e-3), (8, 1e-3), (3, 0.05)])
def test_drawn_sets_match_the_scalar_reference(seed, n_max, margin):
    # margin 0.05 rejects about a third of the candidates, so blocks run short
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    grid = draw_sets(rng, 60, n_max, margin=margin)
    assert grid.g.shape == (60, 1)
    assert records(grid) == [reference_draw(reference, n_max, margin=margin) for _ in range(60)]
    assert rng.bit_generator.state == reference.bit_generator.state
    assert records(draw_sets(rng, 1, n_max, margin=margin)) == [reference_draw(reference, n_max, margin=margin)]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("draws", [1, 5, 200])
def test_one_draw_call_gives_the_sets_and_rng_state_of_two(seed, draws):
    # run_suite drew its winding sets and then the rest; it now draws them at once
    rng, split = np.random.default_rng(seed), np.random.default_rng(seed)
    winding = records(draw_sets(split, max(4, draws // 4), 2))
    light = winding + records(draw_sets(split, draws - len(winding), 2))
    assert records(draw_sets(rng, max(4, draws), 2)) == light
    assert rng.bit_generator.state == split.bit_generator.state


def test_margins_over_a_grid_match_the_scalar_reference():
    rng = np.random.default_rng(5)
    points = [
        ModelParams(1.0, 1.0, 0.25, kappa=0.5),                # block 1 exceptional: margin 0.0
        ModelParams(0.5, 1.0, 0.125, kappa=0.5, Gamma=0.125),  # block 4 exceptional, no other
        ModelParams(1.0, 1.0, 0.0),  # g~ = 0 and block 1 exceptional: the block comes first
        ModelParams(0.9, 1.0, 0.0),  # g~ = 0: a degenerate state, no margin
        *(ModelParams(*rng.uniform(0.01, 1.2, 6).tolist()) for _ in range(40)),
    ]
    grid = ParamGrid(*(np.array([getattr(p, name) for p in points]) for name in PARAM_NAMES))
    margins = boundary_margin(grid, range(1, 9))
    for params, margin in zip(points, margins.tolist()):
        try:
            expected = reference_margin(params, range(1, 9))
        except NhjcError:
            assert math.isnan(margin) and math.isnan(boundary_margin(ParamGrid.rows([params]), range(1, 9)).item())
        else:
            assert margin == expected == boundary_margin(ParamGrid.rows([params]), range(1, 9)).item()
    assert margins[:2].tolist() == [0.0, 0.0] and math.isnan(margins[3])


def test_a_broken_wavefunction_route_fails_the_dual_route_check(monkeypatch):
    # every draw of a chunk shares the phi_pair samples, so a fault there
    # cannot single out one draw: it goes into one route's wave function
    original = nhjc.texture.wavefunction_components

    def broken(params, level, grid):
        up_x, down_x, up_z, down_z = original(params, level, grid)
        if level.n == 1 and len(up_x) > 3:  # draw 3 sits in the first chunk
            up_x = up_x.copy()
            up_x[3] *= 1.0 + 1e-6
        return up_x, down_x, up_z, down_z

    draws = seeded_draws(12, 4)
    assert run_check("dual-route", draws, 4).passed
    monkeypatch.setattr(nhjc.texture, "wavefunction_components", broken)
    result = run_check("dual-route", draws, 4)
    assert not result.passed and "worst pointwise difference" in result.detail


def test_shifted_hermite_roots_fail_the_node_check(monkeypatch):
    # the check compared the nodes with the roots they are built from, so a
    # wrong root passed with deviation 0
    draws = draw_sets(np.random.default_rng(17), 2, 8)
    assert _CHECKS["nodes"](draws, range(1, 9)).passed
    # the node routines read the roots of H_(n-1) and H_n from root_union
    original = nhjc.texture.root_union
    monkeypatch.setattr(nhjc.texture, "root_union", lambda n: original(n) + 0.01)
    result = _CHECKS["nodes"](draws, range(1, 9))
    assert not result.passed and "max position deviation 1.00e-02" in result.detail


def test_shifted_sigma_x_nodes_stop_the_winding_check(monkeypatch):
    # the integral's grid refines around the sigma_x nodes: around wrong ones
    # it misses a squeezed passage of the winding loop
    original = nhjc.texture.ratio_roots
    monkeypatch.setattr(nhjc.texture, "ratio_roots", lambda n, c: original(n, c) + 0.05)
    with pytest.raises(GridTooCoarseError, match=r"\(draw 2: .*, n=2, eta=-1\)"):
        run_check("winding", seeded_draws(4, 4), 4)


def test_a_wrong_node_sum_fails_the_winding_check_and_not_its_reference(monkeypatch):
    # the reference counts node sums by its own scalar sign-sum: had it gone
    # through node_sum_windings as well, it would share the fault and fail too
    original = nhjc.topology.node_sum_windings
    monkeypatch.setattr(nhjc.topology, "node_sum_windings", lambda plane, a, b: original(plane, a, b) + 1)
    draws = seeded_draws(4, 4)
    result = run_check("winding", draws, 4)
    assert not result.passed and result.detail.startswith("64 cases: method mismatches 64, |n_w|=n False")
    assert check_winding(records(draws), 4).passed


def test_winding_error_names_the_draw_and_level(monkeypatch, capsys):
    # reverse the sigma_x nodes of winding draw 12 (in the second chunk of
    # level 2) at (n, eta) = (2, -1) only
    params = seeded_draws(15, 4).point(12)
    sol = eigen_solution(params, LevelIndex(2, -1))
    rho = abs(sol.c_up) / abs(sol.c_down)
    original = nhjc.texture.ratio_roots
    hit = []

    def broken(n, c):
        x = original(n, c)
        rows = np.flatnonzero(np.asarray(c)[..., 1] == rho)
        hit.extend(rows.tolist())
        x[rows] = x[rows][..., ::-1]
        return x

    monkeypatch.setattr(nhjc.texture, "ratio_roots", broken)
    rc = main(["verify", "--draws", "60", "--n-max", "4"])
    err = capsys.readouterr().err
    assert hit and rc == 1
    assert err.startswith("error: sigma_x node refinement") and err.count("\n") == 1
    values = ", ".join(f"{name}={getattr(params, name)!r}"
                       for name in ("omega", "Omega", "g", "kappa", "gamma", "Gamma"))
    assert f"(draw 12: {values}, n=2, eta=-1)" in err


def _draw_named(err, draws, index, n):
    values = ", ".join(f"{name}={getattr(draws.point(index), name)!r}" for name in PARAM_NAMES)
    return f"(draw {index}: {values}, n={n}, eta=-1)" in err and err.count("\n") == 1


def test_node_check_error_names_the_draw_and_level(monkeypatch, capsys):
    def broken(n, rho):
        raise NodeCountError("sigma_x nodes out of order", index=1)

    monkeypatch.setattr(nhjc.topology, "x_node_arrays", broken)
    assert main(["verify", "--draws", "12", "--n-max", "4"]) == 1
    assert _draw_named(capsys.readouterr().err, seeded_draws(12, 4), 1, 1)


@pytest.mark.parametrize("key, n", [("boundaries", 2), ("reversal-identity", 1)])
def test_an_error_on_the_boundary_points_names_the_draw_and_level(monkeypatch, key, n):
    # texture_coefficients runs on the draws that have the boundary point (a
    # subset of the chunk): the error's index into that subset is mapped back
    draws, target = seeded_draws(30, 4), 21  # the third draw with a GR point at n = 2, the fourth with R at n = 1
    original, raised = nhjc.verify.texture_coefficients, []

    def broken(params, level):
        rows = np.flatnonzero(np.ravel(params.omega) == draws.omega[target, 0])
        if params.g.ndim == 1 and rows.size:
            raised.append(int(rows[0]))
            raise DegenerateStateError("injected", index=raised[-1])
        return original(params, level)

    monkeypatch.setattr(nhjc.verify, "texture_coefficients", broken)
    with pytest.raises(DegenerateStateError) as info:
        run_check(key, draws, 4)
    assert _draw_named(str(info.value) + "\n", draws, target, n) and raised[0] != target


def test_batched_checks_evaluate_the_kernel_at_most_200_times(evaluations):
    # a scalar loop evaluates it 3 892 times for the same draws
    draws = seeded_draws(50, 8)
    calls = evaluations
    calls.clear()  # those of the draws
    for key in BATCHED:
        assert run_check(key, draws.take(slice(0, 12)) if key == "winding" else draws, 8).passed
    assert 0 < len(calls) <= 200


def test_suite_memory_is_bounded_by_the_chunk_not_the_draws():
    # fill first what a run keeps: the Hermite roots of its levels and numpy.random
    for n in range(1, 9):
        hermite_roots(n)
    np.random.default_rng(0)
    peaks = []
    for draws in (50, 200):
        tracemalloc.start()
        try:
            run_suite(draws, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # only the grid of draws (48 bytes each) and the per-draw results grow
    assert peaks[1] < 2 * 2 ** 20
    assert peaks[1] - peaks[0] < 2 ** 18


def test_suite_and_plane_sweep_pass_the_kernel_only_grids(evaluations):
    # the node check and the reversal check's reference configuration took
    # 26 records in this run_suite call, one draw or one level at a time
    calls = evaluations
    assert all(result.passed for result in run_suite(50, 8, seed=7))
    suite_calls = len(calls)
    run_sweep(SweepSpec.load(CONFIGS / "sweep_gamma_g_plane.json"))
    assert suite_calls > 0 and len(calls) > suite_calls
    assert not any(record for _, record in calls)


@pytest.mark.parametrize("key", ["boundaries", "reversal-identity"],
                         ids=["_check_boundaries", "_check_reversal_identity"])
def test_boundary_checks_evaluate_the_kernel_as_often_for_any_number_of_draws(evaluations, key):
    # the scalar loops took 110 and 435 evaluations for 50 draws
    calls = evaluations
    counts = []
    for count in (12, 50):
        draws = seeded_draws(count, 8)
        calls.clear()
        assert run_check(key, draws, 8).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# draw 3120 of `nhjc verify --draws 3121 --n-max 1`: its GR point at n = 1 sits
# 8.1e-7 below its Gamma_R = 6.4e-6, inside a probe window of 1e-6, where
# theta_t jumps by pi; probing with that window failed the check with a tilt
# antisymmetry of 3.14
GR_NEAR = ModelParams(omega=0.8307894734165996, Omega=0.830777579126622, g=0.02898151439646397,
                      kappa=0.27760108218187535, gamma=0.3396381410861405, Gamma=0.7202837438613134)


@pytest.mark.filterwarnings("ignore::nhjc.errors.NegativeRateWarning")  # the reference's records
def test_reversal_identity_over_a_grid_matches_the_scalar_reference():
    # draws, the reference point, a point without coupling (no Gamma_R), one
    # with A >= 0 at its Gamma_R (not applicable) and one probed with a step
    # shorter than eps at n = 1
    points = records(seeded_draws(30, 8)) + [
        reference_config(Gamma=0.0),
        reference_config(g=0.0, Gamma=0.0),
        reference_config(g=0.8, Gamma=0.0),
        GR_NEAR,
    ]
    grid = ParamGrid(*(np.array([getattr(p, name) for p in points]) for name in PARAM_NAMES))
    for n in (1, 2, 5):
        applicable, gamma_r, residual, step, *thetas = _reversal_residuals(grid, LevelIndex(n, -1))
        for k, params in enumerate(points):
            expected = reversal_identity(params, n)
            far = [theta_at_gamma(params, n, -1, expected.gamma_reversal + m * expected.step)
                   if expected.applicable else math.nan for m in (-2, 2)]
            assert [_bits(a[k].item()) for a in (applicable, gamma_r, residual, step, *thetas)] == [
                _bits(v) for v in (expected.applicable, expected.gamma_reversal, expected.identity_residual,
                                   expected.step, far[0], expected.theta_below, expected.theta_above, far[1])]
        assert applicable.any() and not applicable.all()
    assert 0.0 < reversal_identity(GR_NEAR, 1).step < 1e-6


def test_a_gapped_reversal_inside_the_probe_window_passes_the_reversal_check():
    result = _CHECKS["reversal-identity"](ParamGrid.rows([GR_NEAR]), [1])
    assert result.passed, result.detail
    assert result.detail.startswith("6 applicable points")


def test_a_shifted_reversal_point_fails_the_reversal_check_on_its_identity(monkeypatch):
    draws = seeded_draws(12, 4)
    assert run_check("reversal-identity", draws, 4).passed
    label, form = nhjc.boundaries._FORMS["R", "Gamma"]
    monkeypatch.setitem(nhjc.boundaries._FORMS, ("R", "Gamma"),
                        (label, lambda *args: form(*args) * (1.0 + 1e-6)))
    result = run_check("reversal-identity", draws, 4)
    worst = float(re.search(r"identity residual (\S+) ", result.detail).group(1))
    assert not result.passed and worst > _CHECKS["reversal-identity"].bounds["identity"]


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_every_check_runs_at_levels_its_draws_were_screened_at(n_max):
    # draw_sets screens at n = 1..n_max; the dual-route and node checks ran
    # level 2 at n_max = 1
    for check in _CHECKS.values():
        assert set(check.levels(n_max)) <= set(range(1, n_max + 1))


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) and not math.isnan(value) else repr(value)
