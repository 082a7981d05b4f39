import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhjc import (
    DegenerateStateError,
    ExceptionalPointError,
    LevelIndex,
    ModelParams,
    block_quantities,
    eigen_solution,
    gaps,
)
from nhjc.params import PARAM_NAMES, ParamGrid, reference_config
from nhjc.spectrum import branch_solution

rates = st.floats(0.0, 1.2)
scales = st.floats(0.05, 1.2)
params_strategy = st.builds(
    ModelParams,
    omega=scales, Omega=scales, g=rates, kappa=rates, gamma=rates, Gamma=rates,
)


def block_matrix(params, n):
    """Oracle: the 2x2 excitation block on the {|n-1,up>, |n,down>} basis."""
    c = params.composites()
    off = c.g_t * math.sqrt(n)
    return np.array([
        [(n - 1) * c.omega_t + 0.5 * c.Omega_t, off],
        [off, n * c.omega_t - 0.5 * c.Omega_t],
    ])


def test_hermitian_resonant_block():
    p = ModelParams(omega=1.0, Omega=1.0, g=0.1)
    bq = block_quantities(p, 1)
    assert bq.A == pytest.approx(0.01, abs=1e-17)
    assert bq.B == 0.0
    assert bq.vartheta == 0.0
    assert bq.R == pytest.approx(0.1, abs=1e-16)


def test_branch_invariants_at_reversal_point():
    # with kappa-gamma = 0.3, Omega-omega = 0.1: B vanishes at
    # Gamma = d_kg d_Ww/(8 g) and the argument sits on the cut (A < 0)
    g = reference_config().g
    Gamma_R = (0.5 - 0.2) * (1.0 - 0.9) / (8.0 * g)
    bq = block_quantities(reference_config(Gamma=Gamma_R), 2)
    assert bq.B == 0.0
    assert bq.A < 0.0
    assert bq.vartheta == math.pi


@given(params=params_strategy, n=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_branch_invariants_match_complex_arithmetic(params, n):
    # oracle: direct complex evaluation of e-^2 + n g~^2
    bq = block_quantities(params, n)
    c = params.composites()
    direct = bq.e_minus ** 2 + n * c.g_t ** 2
    scale = max(1.0, abs(direct))
    assert abs(direct.real - bq.A) < 4e-15 * scale
    assert abs(direct.imag + bq.B) < 4e-15 * scale
    assert bq.R ** 4 == pytest.approx(bq.A ** 2 + bq.B ** 2, rel=5e-15)
    # principal branch: the B = 0 ray maps to +pi; a nonzero B may round onto
    # -pi only from its own (lower) side of the cut
    assert -math.pi <= bq.vartheta <= math.pi
    if bq.B == 0.0:
        assert bq.vartheta > -math.pi
        if bq.A < 0.0:
            assert bq.vartheta == math.pi
    elif bq.vartheta == -math.pi:
        assert bq.B > 0.0


def test_signed_zero_does_not_flip_branch():
    # A < 0 with B == +-0.0 must give vartheta = +pi, never -pi
    plus = block_quantities(ModelParams(omega=1.0, Omega=1.0, g=0.0, Gamma=0.3), 1)
    assert plus.A < 0.0 and plus.B == 0.0
    assert plus.vartheta == math.pi
    minus = block_quantities(ModelParams(omega=1.0, Omega=1.0, g=-0.0, Gamma=0.3), 1)
    assert math.copysign(1.0, minus.B) == -1.0  # really a signed zero
    assert minus.vartheta == math.pi


def test_vacuum_state_energy():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.1, gamma=0.2)
    sol = eigen_solution(p, LevelIndex(0))
    assert sol.energy == complex(-0.5, 0.1)
    assert sol.c_up is None and sol.c_down is None
    assert sol.norm == 1.0


def test_hermitian_resonant_coefficients_and_energies():
    p = ModelParams(omega=1.0, Omega=1.0, g=0.1)
    for eta, energy, c_up in ((+1, 0.6, 0.1), (-1, 0.4, -0.1)):
        sol = eigen_solution(p, LevelIndex(1, eta))
        assert sol.energy == pytest.approx(energy, abs=1e-15)
        assert sol.c_up == pytest.approx(c_up, abs=1e-16)
        assert sol.c_down == pytest.approx(0.1, abs=1e-16)


def test_energy_against_block_matrix_oracle(reference_params):
    level = LevelIndex(3, -1)
    sol = eigen_solution(reference_params, level)
    matrix = block_matrix(reference_params, 3)
    eigenvalues, vectors = np.linalg.eig(matrix)
    closest = int(np.argmin(np.abs(eigenvalues - sol.energy)))
    assert abs(eigenvalues[closest] - sol.energy) < 1e-13
    ratio = vectors[0, closest] / vectors[1, closest]
    assert abs(ratio - sol.c_up / sol.c_down) < 1e-12


@given(params=params_strategy, n=st.integers(1, 8), eta=st.sampled_from([-1, 1]))
@settings(max_examples=120, deadline=None)
def test_eigenpair_satisfies_block_matrix(params, n, eta):
    try:
        sol = eigen_solution(params, LevelIndex(n, eta))
    except (ExceptionalPointError, DegenerateStateError):
        return
    matrix = block_matrix(params, n)
    vec = np.array([sol.c_up, sol.c_down])
    residual = np.max(np.abs(matrix @ vec - sol.energy * vec))
    assert residual < 1e-11 * np.linalg.norm(matrix)
    # reconstruction: c_up = e- + eta R e^{i theta/2}
    bq = block_quantities(params, n)
    rebuilt = bq.e_minus + eta * bq.R * cmath.exp(0.5j * bq.vartheta)
    assert abs(rebuilt - sol.c_up) < 1e-12 * max(1.0, abs(bq.e_minus))
    # energy decomposition matches the complex energy
    assert sol.re_energy == pytest.approx(sol.energy.real, abs=1e-14 * (n + 1))
    assert sol.im_energy == pytest.approx(sol.energy.imag, abs=1e-14 * (n + 1))


@given(params=params_strategy, n=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_branch_energies_sum_to_trace(params, n):
    try:
        plus = eigen_solution(params, LevelIndex(n, +1)).energy
        minus = eigen_solution(params, LevelIndex(n, -1)).energy
    except (ExceptionalPointError, DegenerateStateError):
        return
    e_plus = block_quantities(params, n).e_plus
    assert abs(plus + minus - 2 * e_plus) < 1e-12 * max(1.0, abs(e_plus))


def test_hermitian_energies_are_real():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.3)
    for n in range(1, 15):
        for eta in (-1, 1):
            sol = eigen_solution(p, LevelIndex(n, eta))
            assert abs(sol.im_energy) < 1e-14 * (n + 1)


def test_degenerate_block_raises():
    p = ModelParams(omega=1.0, Omega=1.2, g=0.0)
    with pytest.raises(DegenerateStateError):
        eigen_solution(p, LevelIndex(1, -1))  # coefficients collapse on this branch
    other = eigen_solution(p, LevelIndex(1, +1))  # the opposite branch survives
    assert other.norm > 0.0


def _edge_draws(rng, count):
    """Draws whose coupling |g~| is 1e-10 .. 1e-14 of |e-| (around the
    degeneracy floor at sqrt(n)|g~| = 1e-12 |e-|), then g = Gamma = 0, then
    subnormal and huge rates."""
    omega = rng.uniform(0.5, 1.5, count)
    Omega = omega + rng.choice([-1.0, 1.0], count) * rng.uniform(0.01, 0.5, count)
    kappa, gamma = rng.uniform(0.0, 1.0, (2, count))
    e_minus = 0.5 * np.hypot(Omega - omega, kappa - gamma)
    coupling = e_minus * 10.0 ** rng.uniform(-14.0, -10.0, count)
    angle = rng.uniform(0.0, math.pi, count)  # Gamma >= 0
    draws = [ModelParams(*values) for values in zip(omega.tolist(), Omega.tolist(), (coupling * np.cos(angle)).tolist(),
                                                    kappa.tolist(), gamma.tolist(), (coupling * np.sin(angle)).tolist())]
    draws += [ModelParams(0.9, 1.0 + k / 10.0, 0.0, kappa=0.1 * k, gamma=0.2) for k in range(5)]
    for rate in (5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e100, 1e140, 1e150):
        draws += [ModelParams(0.9, 1.0, rate, kappa=rate, gamma=0.2, Gamma=rate),
                  ModelParams(0.9, 1.0, 1e-13, kappa=rate, gamma=0.0, Gamma=rate),
                  ModelParams(0.9, 1.2, -rate, Gamma=rate)]
    return draws


@pytest.mark.parametrize("n", [1, 2, 5])
def test_grid_degeneracy_flags_and_norms_match_the_scalar_route(n):
    """The grid's prefilter settles most points without the norm; every flag,
    and every norm read afterwards, is the one a scalar call gives."""
    draws = _edge_draws(np.random.default_rng(20240901 + n), 3000)
    grid = ParamGrid(**{name: np.array([getattr(p, name) for p in draws]) for name in PARAM_NAMES})
    flags = []
    for eta in (-1, 1):
        level = LevelIndex(n, eta)
        sol, degenerate = branch_solution(grid, level)
        scalar = [branch_solution(p, level) for p in draws]
        assert degenerate.tolist() == [bool(d) for _, d in scalar]
        want = np.array([s.norm for s, _ in scalar])
        assert ((sol.norm.view(np.int64) == want.view(np.int64)) | (np.isnan(sol.norm) & np.isnan(want))).all()
        flags += degenerate.tolist()
    assert 0 < sum(flags) < len(flags)  # both sides of the floor are reached


def test_exceptional_point_flag_and_error():
    # e- = i sqrt(n) g~ exactly: both branch invariants vanish
    p = ModelParams(omega=0.9, Omega=1.0, g=0.1, kappa=0.5, gamma=0.3, Gamma=0.05)
    bq = block_quantities(p, 1)
    assert bq.exceptional
    with pytest.raises(ExceptionalPointError) as scalar:
        eigen_solution(p, LevelIndex(1, -1))
    # over a grid the error names the first such point, with its own A and B
    points = [reference_config(), p, p]
    grid = ParamGrid(**{name: np.array([getattr(q, name) for q in points]) for name in PARAM_NAMES})
    with pytest.raises(ExceptionalPointError) as batched:
        eigen_solution(grid, LevelIndex(1, -1))
    assert batched.value.index == 1 and scalar.value.index is None
    assert str(batched.value) == str(scalar.value)


def test_gap_pair_hermitian_resonant():
    p = ModelParams(omega=1.0, Omega=1.0, g=0.1)
    gp = gaps(p, 1)
    assert gp.delta_minus == pytest.approx(0.2, abs=1e-15)
    assert gp.delta_plus > 0.0


def test_gap_closes_exactly_on_reversal_boundary():
    g = reference_config().g
    for n in range(1, 6):
        Gamma_R = 0.3 * 0.1 / (4.0 * n * g)
        gp = gaps(reference_config(Gamma=Gamma_R), n)
        assert gp.delta_minus < 1e-10
        assert gp.delta_plus > 1e-3


@given(params=params_strategy, n=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_delta_minus_equals_branch_splitting(params, n):
    # two routes: energy difference vs 2 R |cos(theta/2)|
    bq = block_quantities(params, n)
    gp = gaps(params, n)
    split = 2.0 * bq.R * abs(math.cos(0.5 * bq.vartheta))
    assert abs(gp.delta_minus - split) < 1e-12 * max(1.0, split)


def test_the_norm_sums_correctly_rounded_squares():
    # libm pow (abs(z) ** 2) rounded |C_up|^2 the wrong way here, and the
    # norm read 124.37579843711555
    from fractions import Fraction

    params = ModelParams(omega=0.3417627928071108, Omega=1.1442695343090976, g=0.13148602018644193,
                         kappa=1.0831638954845344, gamma=0.09400169052597764, Gamma=0.5962633168634052)
    level = LevelIndex(175, 1)
    sol = eigen_solution(params, level)
    squares = [float(Fraction(abs(c)) ** 2) for c in (sol.c_up, sol.c_down)]
    assert sol.norm == squares[0] + squares[1] == 124.37579843711558
    assert eigen_solution(ParamGrid.rows([params]), level).norm.item() == sol.norm
