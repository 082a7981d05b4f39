import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhjc import domain_cutoff, hermite_roots, phi, phi_pair, phi_ratio
from nhjc.oscillator import ratio_roots
from reference_solvers import interlacing_roots


def mpmath_phi(n, x):
    """Oracle: 64-digit direct evaluation of H_n(x) e^{-x^2/2}/sqrt(2^n n! sqrt(pi))."""
    import mpmath as mp

    with mp.workdps(64):
        xm = mp.mpf(x)
        val = mp.hermite(n, xm) * mp.e ** (-xm * xm / 2)
        val /= mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        return float(val)


def test_ground_state_at_origin():
    assert phi(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)


def test_first_excited_vanishes_at_origin():
    assert phi(1, 0.0) == 0.0


def test_phi_against_high_precision_oracle():
    # frozen from mpmath_phi(5, 1.3) at 64 digits
    assert phi(5, 1.3) == pytest.approx(-0.3993914628137508, abs=1e-15)
    assert phi(5, 1.3) == pytest.approx(mpmath_phi(5, 1.3), abs=1e-15)


@given(n=st.integers(0, 60), x=st.floats(-8.0, 8.0))
@settings(max_examples=60, deadline=None)
def test_phi_matches_oracle_everywhere(n, x):
    assert phi(n, x) == pytest.approx(mpmath_phi(n, x), abs=2e-14)


def test_no_overflow_up_to_n200():
    xs = np.linspace(-40.0, 40.0, 401)
    values = phi(200, xs)
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 1.0


def test_tail_below_cutoff_is_negligible():
    for n in (1, 10, 100):
        L = domain_cutoff(n)
        assert abs(phi(n, L)) < 1e-14
        assert abs(phi(n, -L)) < 1e-14


def test_phi_pair_consistency():
    lo, hi = phi_pair(7, 0.83)
    assert lo == phi(6, 0.83)
    assert hi == phi(7, 0.83)


def test_phi_ratio_matches_direct_quotient():
    for n, x in ((1, 0.4), (6, -1.7), (12, 3.2)):
        assert phi_ratio(n, x) == pytest.approx(phi(n, x) / phi(n - 1, x), rel=1e-12)


def test_phi_ratio_survives_gaussian_underflow():
    # phi itself underflows to 0 here; the ratio keeps its asymptotic slope
    assert phi_ratio(5, 300.0) == pytest.approx(math.sqrt(2.0 / 5.0) * 300.0, rel=1e-2)


def test_orthonormality_by_trapezoid():
    n_top = 20
    L = domain_cutoff(n_top)
    xs = np.linspace(-L, L, 2000)
    stack = np.array([phi(m, xs) for m in range(n_top + 1)])
    gram = stack @ stack.T * (xs[1] - xs[0])
    assert np.max(np.abs(gram - np.eye(n_top + 1))) < 1e-10


def test_first_two_root_sets():
    assert hermite_roots(1).tolist() == [0.0]
    assert hermite_roots(2) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-12)


def test_roots_against_interlacing_oracle():
    for n in (6, 13, 60):
        assert np.max(np.abs(hermite_roots(n) - interlacing_roots(n))) < 1e-10


def test_root_symmetry_is_exact():
    for n in (4, 7, 22):
        roots = hermite_roots(n)
        assert np.array_equal(roots, -roots[::-1])
        if n % 2:
            assert roots[n // 2] == 0.0


def test_roots_interlace():
    for n in (3, 9, 30):
        outer = hermite_roots(n)
        inner = hermite_roots(n - 1)
        assert np.all(inner > outer[:-1]) and np.all(inner < outer[1:])


def test_root_domain_limits():
    with pytest.raises(ValueError):
        hermite_roots(0)
    with pytest.raises(ValueError):
        hermite_roots(201)
    top = hermite_roots(200)
    assert len(top) == 200 and np.all(np.diff(top) > 0)


def test_ratio_roots_solves_large_batches_in_bounded_stacks():
    n, c = 100, np.linspace(-3.0, 3.0, 600)
    tracemalloc.start()
    try:
        batch = ratio_roots(n, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # one stack of all 600 Jacobi matrices takes 48 MB
    for i in (0, 208, 209, 599):  # both sides of the first stack boundary
        assert np.array_equal(batch[i], ratio_roots(n, c[i]))
