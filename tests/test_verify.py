import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import nhjc
import nhjc.boundaries
import nhjc.spectrum
import nhjc.texture
import nhjc.topology
import nhjc.verify
from nhjc import GridTooCoarseError, LevelIndex, ModelParams, NhjcError, eigen_solution, verify_reversal_identity
from nhjc.cli import main
from nhjc.params import PARAM_NAMES, ParamGrid
from nhjc.verify import (
    _CHECKS,
    DEFAULT_SEED,
    boundary_margin,
    draw_params,
    draw_sets,
    run_suite,
)
from reference_verify import reference_draw, reference_margin, reference_suite, reversal_identity

BATCHED = ("eigen", "dual-route", "parity", "hermitian", "winding", "tilting")


def run_check(key, draws, n_max):
    """The table's check at the levels run_suite gives it for n_max."""
    check = _CHECKS[key]
    return check(draws, check.levels(n_max))


def seeded_draws(count, n_max, seed=DEFAULT_SEED):
    """The first `count` draws of run_suite's seeded sequence; its winding
    draws are the first max(4, draws // 4) of them."""
    rng = np.random.default_rng(seed)
    return [draw_params(rng, n_max) for _ in range(count)]


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
    assert draw_sets(rng, 60, n_max, margin=margin) == [reference_draw(reference, n_max, margin=margin)
                                                         for _ in range(60)]
    assert rng.bit_generator.state == reference.bit_generator.state
    assert draw_params(rng, n_max, margin=margin) == reference_draw(reference, n_max, margin=margin)


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
            assert math.isnan(margin) and math.isnan(boundary_margin(params, range(1, 9)))
        else:
            assert margin == expected == boundary_margin(params, range(1, 9))
    assert margins[:2].tolist() == [0.0, 0.0] and math.isnan(margins[3])


def test_a_broken_wavefunction_route_fails_the_dual_route_check(monkeypatch):
    # every draw of a chunk shares the phi_pair samples, so a fault there
    # cannot single out one draw: it goes into one route's wave function
    original = nhjc.texture.wavefunction_components

    def broken(params, level, grid, block=None):
        up_x, down_x, up_z, down_z = original(params, level, grid, block)
        if level.n == 1 and len(up_x) > 3:  # draw 3 sits in the first chunk
            up_x = up_x.copy()
            up_x[3] *= 1.0 + 1e-6
        return up_x, down_x, up_z, down_z

    draws = seeded_draws(12, 4)
    assert run_check("dual-route", draws, 4).passed
    monkeypatch.setattr(nhjc.texture, "wavefunction_components", broken)
    result = run_check("dual-route", draws, 4)
    assert not result.passed and "worst pointwise difference" in result.detail


def test_shifted_sigma_x_nodes_stop_the_winding_check(monkeypatch):
    # the integral's grid refines around the sigma_x nodes: around wrong ones
    # it misses a squeezed passage of the winding loop
    original = nhjc.texture.ratio_roots
    monkeypatch.setattr(nhjc.texture, "ratio_roots", lambda n, c: original(n, c) + 0.05)
    with pytest.raises(GridTooCoarseError, match=r"\(draw 2: .*, n=2, eta=-1\)"):
        run_check("winding", seeded_draws(4, 4), 4)


def test_winding_error_names_the_draw_and_level(monkeypatch, capsys):
    # reverse the sigma_x nodes of winding draw 12 (in the second chunk of
    # level 2) at (n, eta) = (2, -1) only
    params = seeded_draws(15, 4)[12]
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


def test_batched_checks_evaluate_the_kernel_at_most_200_times(monkeypatch):
    # a scalar loop evaluates it 3 892 times for the same draws
    draws = seeded_draws(50, 8)
    original = nhjc.spectrum.block_quantities
    calls = []

    def counted(params, n):
        calls.append(n)
        return original(params, n)

    for module in (nhjc, nhjc.spectrum, nhjc.texture, nhjc.topology, nhjc.verify):
        if getattr(module, "block_quantities", None) is original:
            monkeypatch.setattr(module, "block_quantities", counted)
    for key in BATCHED:
        assert run_check(key, draws[:12] if key == "winding" else draws, 8).passed
    assert 0 < len(calls) <= 200


def test_suite_memory_is_bounded_by_the_chunk_not_the_draws():
    run_suite(12, 8)  # fill the Hermite-root cache first
    peaks = []
    for draws in (50, 200):
        tracemalloc.start()
        try:
            run_suite(draws, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # only the draw records themselves (a few hundred bytes each) grow
    assert peaks[1] < 2 * 2 ** 20
    assert peaks[1] - peaks[0] < 2 ** 18


def _count_kernel_calls(monkeypatch):
    original = nhjc.spectrum.block_quantities
    calls = []

    def counted(params, n):
        calls.append(n)
        return original(params, n)

    for module in (nhjc, nhjc.spectrum, nhjc.texture, nhjc.topology, nhjc.boundaries, nhjc.verify):
        if getattr(module, "block_quantities", None) is original:
            monkeypatch.setattr(module, "block_quantities", counted)
    return calls


@pytest.mark.parametrize("key", ["boundaries", "reversal-identity"],
                         ids=["_check_boundaries", "_check_reversal_identity"])
def test_boundary_checks_evaluate_the_kernel_as_often_for_any_number_of_draws(monkeypatch, key):
    # the scalar loops took 110 and 435 evaluations for 50 draws
    calls = _count_kernel_calls(monkeypatch)
    counts = []
    for count in (12, 50):
        draws = seeded_draws(count, 8)
        calls.clear()
        assert run_check(key, draws, 8).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.filterwarnings("ignore::nhjc.errors.NegativeRateWarning")  # the reference's records
def test_reversal_identity_over_a_grid_matches_the_scalar_reference():
    # draws, the reference point, a point without coupling (no Gamma_R) and
    # one with A >= 0 at its Gamma_R (not applicable)
    points = seeded_draws(30, 8) + [
        ModelParams(omega=0.9, Omega=1.0, g=0.1 * math.sqrt(0.9) / 2, kappa=0.5, gamma=0.2),
        ModelParams(omega=0.9, Omega=1.0, g=0.0, kappa=0.5, gamma=0.2),
        ModelParams(omega=0.9, Omega=1.0, g=0.8, kappa=0.5, gamma=0.2),
    ]
    grid = ParamGrid(*(np.array([getattr(p, name) for p in points]) for name in PARAM_NAMES))
    fields = ("applicable", "gamma_reversal", "identity_residual", "antisymmetry_residual",
              "theta_below", "theta_above")
    for n in (1, 2, 5):
        report = verify_reversal_identity(grid, n)
        assert report.n == n and report.eta == -1 and report.reason == ""
        for k, params in enumerate(points):
            expected = reversal_identity(params, n)
            scalar = verify_reversal_identity(params, n)
            assert scalar.reason == expected.reason
            assert [_bits(getattr(scalar, name)) for name in fields] \
                == [_bits(getattr(report, name)[k].item()) for name in fields] \
                == [_bits(getattr(expected, name)) for name in fields]
    assert report.applicable.any() and not report.applicable.all()


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) and not math.isnan(value) else repr(value)
