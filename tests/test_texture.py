import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhjc import (
    ExceptionalPointError,
    LevelIndex,
    ModelParams,
    NodeCountError,
    ValidationError,
    block_quantities,
    eigen_solution,
    hermite_roots,
    nodes,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    texture_from_wavefunctions,
    wavefunction_components,
)
from nhjc.oscillator import ratio_roots
from nhjc.params import reference_config
from nhjc.texture import x_node_arrays
from reference_solvers import bisect_x_nodes

rates = st.floats(0.0, 1.2)
scales = st.floats(0.05, 1.2)
params_strategy = st.builds(
    ModelParams,
    omega=scales, Omega=scales, g=rates, kappa=rates, gamma=rates, Gamma=rates,
)


def assert_matches_bisection(positions, n, rho):
    reference = bisect_x_nodes(n, rho)
    assert len(positions) == len(reference) == 2 * n
    assert np.all(np.abs(positions - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


def far_from_special_points(params, n):
    try:
        bq = block_quantities(params, n)
    except Exception:
        return False
    return not bq.exceptional and abs(params.composites().g_t) > 1e-3


def test_standard_grid_shape_and_symmetry():
    grid = standard_grid(3)
    assert len(grid) == 801
    assert grid[400] == 0.0  # odd count keeps the origin sampled
    assert grid[-1] == -grid[0] == math.sqrt(7) + 8.0


def test_coefficient_reconstruction(reference_params):
    level = LevelIndex(3, -1)
    co = texture_coefficients(reference_params, level)
    bq = block_quantities(reference_params, 3)
    c = reference_params.composites()
    g, Gamma = reference_params.g, reference_params.Gamma
    d_Ww, d_kg = c.d_Omega_omega, c.d_kappa_gamma
    half = 0.5 * bq.vartheta
    rc, rs = -bq.R * math.cos(half), -bq.R * math.sin(half)  # eta = -1
    scale = abs(g * d_Ww) + abs(Gamma * d_kg) + 2 * bq.R * (g + Gamma)
    assert co.c_z == pytest.approx(g * d_Ww - Gamma * d_kg + 2 * (g * rc - Gamma * rs),
                                   abs=1e-12 * scale)
    assert co.c_y == pytest.approx(Gamma * d_Ww + g * d_kg + 2 * (Gamma * rc + g * rs),
                                   abs=1e-12 * scale)
    assert co.d_x == pytest.approx(
        d_Ww ** 2 + d_kg ** 2 + 4 * bq.R ** 2 + 4 * (d_Ww * rc + d_kg * rs), rel=1e-14)
    assert eigen_solution(reference_params, level).norm > 0.0


def test_hermitian_coefficients(hermitian_params):
    # Cy vanishes identically; Cz takes the closed Hermitian form
    for n in (1, 4, 9):
        for eta in (-1, 1):
            co = texture_coefficients(hermitian_params, LevelIndex(n, eta))
            assert co.c_y == 0.0
            g = hermitian_params.g
            d = 0.1
            expected = g * d + eta * g * math.sqrt(d * d + 4 * g * g * n)
            assert co.c_z == pytest.approx(expected, rel=1e-13)


def test_coefficient_ratio_matches_texture_ratio(reference_params):
    # oracle: wavefunction-route texture at one off-node position
    level = LevelIndex(3, -1)
    co = texture_coefficients(reference_params, level)
    tex = texture_from_wavefunctions(reference_params, level, np.array([0.37]))
    assert co.c_y / co.c_z == pytest.approx(tex.sy[0] / tex.sz[0], abs=1e-13)


def test_exceptional_point_propagates():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.1, kappa=0.5, gamma=0.3, Gamma=0.05)
    with pytest.raises(ExceptionalPointError):
        texture_coefficients(p, LevelIndex(1, -1))


def test_vacuum_texture():
    grid = standard_grid(0)
    tex = texture_closed_form(reference_config(), LevelIndex(0), grid)
    middle = len(grid) // 2
    assert tex.sx[middle] == pytest.approx(-1.0 / math.sqrt(math.pi), abs=1e-15)
    assert not tex.sy.any() and not tex.sz.any()
    wave = texture_from_wavefunctions(reference_config(), LevelIndex(0), grid)
    assert np.array_equal(wave.sx, tex.sx)


def test_transverse_components_vanish_at_hermite_roots(reference_params):
    level = LevelIndex(4, -1)
    shared = np.sort(np.concatenate((hermite_roots(3), hermite_roots(4))))
    tex = texture_closed_form(reference_params, level, shared)
    assert np.max(np.abs(tex.sz)) < 1e-12
    assert np.max(np.abs(tex.sy)) < 1e-12


def test_dual_route_equivalence_reference(reference_params):
    level = LevelIndex(3, -1)
    grid = standard_grid(3)
    a = texture_closed_form(reference_params, level, grid)
    b = texture_from_wavefunctions(reference_params, level, grid)
    for route_a, route_b in ((a.sx, b.sx), (a.sy, b.sy), (a.sz, b.sz)):
        assert np.max(np.abs(route_a - route_b)) < 1e-11


@given(params=params_strategy, n=st.integers(1, 12), eta=st.sampled_from([-1, 1]))
@settings(max_examples=60, deadline=None)
def test_dual_route_equivalence_random(params, n, eta):
    if not far_from_special_points(params, n):
        return
    level = LevelIndex(n, eta)
    grid = standard_grid(n)
    a = texture_closed_form(params, level, grid)
    b = texture_from_wavefunctions(params, level, grid)
    assert np.max(np.abs(a.sx - b.sx)) < 1e-11
    assert np.max(np.abs(a.sy - b.sy)) < 1e-11
    assert np.max(np.abs(a.sz - b.sz)) < 1e-11


def test_parity_of_texture_and_wavefunctions(reference_params):
    for n in (1, 3, 8):
        level = LevelIndex(n, -1)
        grid = standard_grid(n)
        tex = texture_closed_form(reference_params, level, grid)
        assert np.max(np.abs(tex.sx - tex.sx[::-1])) < 1e-12
        assert np.max(np.abs(tex.sy + tex.sy[::-1])) < 1e-12
        assert np.max(np.abs(tex.sz + tex.sz[::-1])) < 1e-12
        _, _, up_z, down_z = wavefunction_components(reference_params, level, grid)
        assert np.max(np.abs(up_z - (-1) ** (n - 1) * down_z[::-1])) < 1e-13


def test_hermitian_sigma_y_vanishes(hermitian_params):
    for n in (1, 7, 20):
        tex = texture_closed_form(hermitian_params, LevelIndex(n, -1), standard_grid(n))
        assert np.max(np.abs(tex.sy)) < 1e-14


def test_ratio_constancy(reference_params):
    level = LevelIndex(5, -1)
    tex = texture_closed_form(reference_params, level, standard_grid(5))
    co = tex.coeffs
    amplitude = np.max(np.abs(tex.sy)) + np.max(np.abs(tex.sz))
    assert np.max(np.abs(tex.sy * co.c_z - tex.sz * co.c_y)) < 1e-12 * amplitude


def test_node_counts_and_shared_positions(reference_params):
    level = LevelIndex(3, -1)
    nz = nodes(reference_params, level, "z")
    ny = nodes(reference_params, level, "y")
    nx = nodes(reference_params, level, "x")
    assert len(nz.positions) == 5 and len(nx.positions) == 6
    assert np.array_equal(nz.positions, ny.positions)
    union = np.sort(np.concatenate((hermite_roots(2), hermite_roots(3))))
    assert np.max(np.abs(nz.positions - union)) < 1e-12


def test_single_excitation_node_sets(reference_params):
    level = LevelIndex(1, -1)
    nz = nodes(reference_params, level, "z")
    assert nz.positions.tolist() == [0.0]
    assert len(nodes(reference_params, level, "x").positions) == 2


def test_second_level_transverse_nodes(reference_params):
    nz = nodes(reference_params, LevelIndex(2, -1), "z")
    expected = [-1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)]
    assert nz.positions == pytest.approx(expected, abs=1e-12)


def test_sigma_x_nodes_zero_the_closed_form(reference_params):
    level = LevelIndex(6, -1)
    nx = nodes(reference_params, level, "x")
    tex = texture_closed_form(reference_params, level, nx.positions)
    scale = np.max(np.abs(texture_closed_form(reference_params, level).sx))
    assert np.max(np.abs(tex.sx)) < 1e-10 * scale
    assert len(nx.positions) == 12
    assert nx.signs[0] == nx.signs[-1] == -1


def test_node_positions_invariant_across_parameters(rng):
    level = LevelIndex(4, -1)
    sets = []
    for _ in range(2):
        omega, Omega, g, kappa, gamma, Gamma = rng.uniform(0.05, 1.2, 6)
        p = ModelParams(omega=omega, Omega=Omega, g=g, kappa=kappa, gamma=gamma, Gamma=Gamma)
        if not far_from_special_points(p, 4):
            continue
        sets.append(nodes(p, level, "z").positions)
    for positions in sets:
        assert np.max(np.abs(positions - sets[0])) < 1e-12


def test_sigma_x_nodes_far_outside_classical_region():
    # tiny |g~| pushes the outer nodes far beyond the standard grid
    p = ModelParams(omega=0.3, Omega=1.2, g=0.001, kappa=0.9, gamma=0.1, Gamma=0.0005)
    level = LevelIndex(4, +1)
    nx = nodes(p, level, "x")
    assert len(nx.positions) == 8
    assert nx.positions[-1] > 100.0
    assert np.all(np.diff(nx.positions) > 0)
    sol = eigen_solution(p, level)
    assert_matches_bisection(nx.positions, 4, abs(sol.c_up) / abs(sol.c_down))


@pytest.mark.parametrize("rho", [1e-8, 1e-3, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("n", [1, 2, 9, 30])
def test_ratio_roots_match_bisection_over_rho_decades(n, rho):
    # nodes(..., "x") interleaves the level sets -rho and +rho this way
    assert_matches_bisection(ratio_roots(n, (-rho, rho)).T.ravel(), n, rho)


@given(params=params_strategy, n=st.integers(1, 30), eta=st.sampled_from([-1, 1]))
@settings(max_examples=40, deadline=None)
def test_sigma_x_nodes_match_bisection(params, n, eta):
    if not far_from_special_points(params, n):
        return
    level = LevelIndex(n, eta)
    sol = eigen_solution(params, level)
    assert_matches_bisection(nodes(params, level, "x").positions, n, abs(sol.c_up) / abs(sol.c_down))


def test_nodes_reject_vacuum_level(reference_params):
    with pytest.raises(ValidationError):
        nodes(reference_params, LevelIndex(0), "z")
    with pytest.raises(ValidationError):
        nodes(reference_params, LevelIndex(2, -1), "w")
    for component in "zyx":  # z and y ended in a bare ValueError from hermite_roots
        with pytest.raises(ValidationError, match=r"^n must be in \[0, 200\], got 201$"):
            nodes(reference_params, LevelIndex(201), component)


@given(params=params_strategy, n=st.integers(1, 10), eta=st.sampled_from([-1, 1]))
@settings(max_examples=60, deadline=None)
def test_sigma_x_node_count_is_2n(params, n, eta):
    if not far_from_special_points(params, n):
        return
    try:
        nx = nodes(params, LevelIndex(n, eta), "x")
    except NodeCountError:
        pytest.fail("node refinement must either succeed or signal structurally")
    assert len(nx.positions) == 2 * n
    assert tuple(nx.signs[i] for i in (0, -1)) == (-1, -1)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("across", ["root", "pole"])
def test_nodes_moved_across_a_root_or_a_pole_fail_the_interlacing_check(monkeypatch, n, across):
    # at rho = 1 either move keeps the nodes increasing and the texture's sign
    # at every midpoint: only their interlacing with the roots of H_n (roots)
    # and H_(n-1) (poles) places them wrong
    import nhjc.texture

    rho = np.array([1.0])
    nhjc.texture.x_node_arrays(n, rho)
    roots, poles = hermite_roots(n), hermite_roots(n - 1)

    def moved(n, c):
        x = ratio_roots(n, c)  # shape (1, 2, n): the n solutions for -rho, then those for +rho
        if across == "root":  # the -rho node of branch 1 just past its root of H_n
            x[:, 0, 1] = roots[1] + 0.25 * (x[:, 1, 1] - roots[1])
        else:  # the +rho node of branch 0 just past its pole
            x[:, 1, 0] = poles[0] + 0.25 * (x[:, 0, 1] - poles[0])
        return x

    monkeypatch.setattr(nhjc.texture, "ratio_roots", moved)
    with pytest.raises(NodeCountError, match=f"n={n} left a node outside its interval"):
        nhjc.texture.x_node_arrays(n, rho)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_x_section_signs_hold_for_ratios_whose_square_overflows():
    # rho^2 overflows past ~1.3e154; the sign check compares |phi_n/phi_(n-1)|
    # with rho itself. The outer nodes sit where the ratio ~ x sqrt(2/n) = x
    positions, signs = x_node_arrays(2, np.array([1e159, 1e200]))
    assert signs.tolist() == [-1, 1, -1, 1, -1]
    assert np.all(np.diff(positions, axis=-1) > 0)
    assert np.allclose(positions[:, [0, -1]], [[-1e159, 1e159], [-1e200, 1e200]], rtol=1e-12, atol=0)
