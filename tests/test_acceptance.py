"""Acceptance gate: every shipped guarantee, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Criteria 2-7 run the invariant checks of `nhjc verify` (the
table nhjc.verify._CHECKS) on their own seeds, draw counts and levels, at
the bounds that table holds, and print the check's detail, and so does
criterion 9 on the reference configuration. The tolerances of the criteria
verify does not cover (1, 8, 10-12) are pinned here.
"""

import functools
import time

import numpy as np
import pytest

from nhjc import (
    Axis,
    LevelIndex,
    ModelParams,
    SweepSpec,
    boundary,
    gaps,
    run_sweep,
    texture_coefficients,
    tilting_angle,
    winding_direction,
)
from nhjc.params import WINDING_LEVEL, ParamGrid, reference_config, winding_states
from nhjc.verify import _CHECKS, _bound_text, draw_sets


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {title}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"\n[PASS] criterion {number}: {title}{suffix}")
        return wrapper
    return decorate


@criterion(1, "gapped-reversal transition value and runtime")
def test_c01_gapped_reversal_value():
    base = reference_config(Gamma=0.0)
    boundary(base, "GR", 1, "Gamma")  # warm-up
    start = time.perf_counter()
    point = boundary(base, "GR", 1, "Gamma")
    elapsed = time.perf_counter() - start
    assert point.value == pytest.approx(0.01581, abs=5e-6)
    assert abs(point.value - 0.016) < 5e-4  # the reported rounding of the transition
    assert elapsed < 1e-3
    return f"Gamma_GR = {point.value:.5f}, {elapsed * 1e6:.0f} us"


def _passes(key, draws, levels):
    """The detail of verify's check `key` on these draws and levels, which
    must pass."""
    result = _CHECKS[key](draws, levels)
    assert result.passed, result.detail
    return result.detail


@functools.cache
def _winding_detail():
    """The winding check on 200 margin-respecting draws at n = 1..8, both
    eta, and the seconds drawing and checking took."""
    start = time.perf_counter()
    detail = _passes("winding", draw_sets(np.random.default_rng(2024), 200, n_max=8), range(1, 9))
    return detail, time.perf_counter() - start


@criterion(2, "winding magnitude law on 200 margin-respecting draws (< 30 s)")
def test_c02_winding_magnitude_law():
    detail, elapsed = _winding_detail()
    assert elapsed < 30.0
    return f"{detail}, {elapsed:.1f} s"


@criterion(3, "method equivalence: node-sum == integral on every criterion-2 case")
def test_c03_method_equivalence():
    # the check passes only with zero mismatches (integers, zero tolerance)
    return _winding_detail()[0].partition(", |n_w|")[0]


@criterion(4, "hermitian limit: sigma_y vanishes and the tilt is exactly zero")
def test_c04_hermitian_limit():
    rng = np.random.default_rng(7)
    draws = ParamGrid.rows([ModelParams(*rng.uniform(0.1, 1.2, 3).tolist()) for _ in range(5)])
    return _passes("hermitian", draws, range(1, 21))


@criterion(5, f"dual-route texture equivalence below {_bound_text(_CHECKS['dual-route'].bounds['difference'])}"
               " (n <= 20, 50 draws)")
def test_c05_dual_route_equivalence():
    return _passes("dual-route", draw_sets(np.random.default_rng(11), 50, n_max=8), range(1, 21))


@criterion(6, "parity: sigma_x even, sigma_z and sigma_y odd, below "
               f"{_bound_text(_CHECKS['parity'].bounds['texture'])}")
def test_c06_parity():
    return _passes("parity", draw_sets(np.random.default_rng(13), 10, n_max=8), (1, 3, 8, 14, 20))


@criterion(7, "invariant nodes: Hermite-root positions, counts 2n-1 and 2n")
def test_c07_invariant_nodes():
    return _passes("nodes", draw_sets(np.random.default_rng(17), 2, n_max=8), range(1, 9))


@criterion(8, "gap laws: closing at reversal points, open at the gapped reversal")
def test_c08_gap_laws():
    base = reference_config(Gamma=0.0)
    closing = 0.0
    for n in range(1, 6):
        point = boundary(base, "R", n, "Gamma")
        assert point.valid
        value = gaps(reference_config(Gamma=point.value), n).delta_minus
        closing = max(closing, value)
        assert value < 1e-10
    gr = boundary(base, "GR", 2, "Gamma")
    open_gap = gaps(reference_config(Gamma=gr.value), 2).delta_minus
    assert open_gap > 1e-3
    return f"max gap at reversal {closing:.1e}, gap at gapped reversal {open_gap:.3f}"


@criterion(9, "reversal-closure identity and tilt antisymmetry at Gamma_R")
def test_c09_reversal_identity():
    return _passes("reversal-identity", ParamGrid.rows([reference_config(Gamma=0.0)]), range(1, 6))


@criterion(10, "super-invariance: zero tilt for n in {1, 10, 100}, gap open")
def test_c10_super_invariance():
    base = reference_config(Gamma=0.05)
    point = boundary(base, "SI", 1, "gamma")
    at = base.with_value("gamma", point.value)
    worst = 0.0
    for n in (1, 10, 100):
        tilt = tilting_angle(texture_coefficients(at, LevelIndex(n, -1)))
        worst = max(worst, abs(tilt.theta_t))
    assert worst < 1e-10
    gap = gaps(at, 1).delta_minus
    assert gap > 0.0
    return f"max |theta_t| = {worst:.1e}, gap {gap:.3f}"


@criterion(11, "direction-flip certificates across the four representative states")
def test_c11_direction_flips():
    signs = []
    for params in winding_states():
        coeffs = texture_coefficients(params, WINDING_LEVEL)
        signs.append((winding_direction(coeffs, "zx"), winding_direction(coeffs, "yx")))
    s_zx = [s[0] for s in signs]
    s_yx = [s[1] for s in signs]
    assert s_zx[0] != s_zx[1], "zx direction must flip between states 1 and 2"
    assert s_zx[1] != s_zx[2], "zx direction must flip between states 2 and 3"
    assert s_zx[2] == s_zx[3], "zx direction must not flip between states 3 and 4"
    assert s_yx[0] == s_yx[1] == s_yx[2], "yx direction must hold over states 1-3"
    assert s_yx[2] != s_yx[3], "yx direction must flip between states 3 and 4"
    return f"s_zx = {s_zx}, s_yx = {s_yx}"


@criterion(12, "sweep determinism at phase-diagram scale (< 60 s, byte-identical)")
def test_c12_sweep_determinism(tmp_path):
    spec = SweepSpec(
        base=reference_config(Gamma=0.0),
        axes=(Axis("Gamma", 0.0, 0.12, 121), Axis("g", 0.001, 0.1, 101)),
        levels=(LevelIndex(2, -1),),
        observables=("thetaT", "deltaMinus", "nWzx"),
        overlays=("R", "GR"),
    )
    start = time.perf_counter()
    first = run_sweep(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    second = run_sweep(spec)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    first.to_csv(path_a)
    second.to_csv(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert len(first.rows) == 121 * 101
    return f"{len(first.rows)} rows in {elapsed:.1f} s, re-run byte-identical"
