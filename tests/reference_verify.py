"""Reference invariant checks: the seeded draws and the six per-draw checks of
nhjc.verify written one draw and one level at a time through the scalar
public API. The library evaluates them over whole blocks and chunks of draws;
these loops are the oracle its results are compared with, draw by draw, check
by check and string by string."""

import math
import warnings

import numpy as np

from nhjc import (
    LevelIndex,
    ModelParams,
    block_quantities,
    eigen_solution,
    nodes,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    texture_from_wavefunctions,
    tilting_angle,
    wavefunction_components,
    winding_direction,
    winding_grid,
    winding_integral,
    winding_node_sum,
)
from nhjc.errors import NegativeRateWarning, NhjcError
from nhjc.verify import (
    BOUNDARY_MARGIN,
    CheckResult,
    _check_boundaries,
    _check_nodes,
    _check_reversal_identity,
)


def reference_margin(params, n_values, etas=(-1, 1)):
    """verify.boundary_margin of one draw; a degenerate state raises."""
    margin = abs(params.composites().g_t)
    for n in n_values:
        bq = block_quantities(params, n)
        margin = min(margin, bq.R * bq.R / bq.scale_A)
        if bq.exceptional:
            return 0.0
        for eta in etas:
            coeffs = texture_coefficients(params, LevelIndex(n, eta), bq)
            margin = min(margin, *bq.distances(coeffs.c_z, coeffs.c_y))
    return margin


def reference_draw(rng, n_max=8, high=1.2, margin=BOUNDARY_MARGIN):
    """verify.draw_params one candidate at a time."""
    n_values = range(1, n_max + 1)
    while True:
        omega, Omega, g, kappa, gamma, Gamma = rng.uniform(0.0, high, 6)
        if omega < 1e-3 or Omega < 1e-3:
            continue
        params = ModelParams(omega=float(omega), Omega=float(Omega), g=float(g),
                             kappa=float(kappa), gamma=float(gamma), Gamma=float(Gamma))
        try:
            if reference_margin(params, n_values) >= margin:
                return params
        except NhjcError:
            continue


def _block_matrix(params, n):
    c = params.composites()
    off = c.g_t * math.sqrt(n)
    return np.array([
        [(n - 1) * c.omega_t + 0.5 * c.Omega_t, off],
        [off, n * c.omega_t - 0.5 * c.Omega_t],
    ])


def check_eigen(draws, n_max):
    worst = 0.0
    for params in draws:
        for n in range(1, n_max + 1):
            bq = block_quantities(params, n)
            direct = bq.e_minus ** 2 + n * params.composites().g_t ** 2
            worst = max(worst, abs(direct - complex(bq.A, -bq.B)) / max(1.0, abs(direct)))
            matrix = _block_matrix(params, n)
            norm = np.linalg.norm(matrix)
            pair = [eigen_solution(params, LevelIndex(n, eta), bq) for eta in (-1, 1)]
            for sol in pair:
                vec = np.array([sol.c_up, sol.c_down])
                worst = max(worst, float(np.max(np.abs(matrix @ vec - sol.energy * vec))) / norm)
            worst = max(worst, abs(pair[0].energy + pair[1].energy - 2 * bq.e_plus)
                        / max(1.0, abs(bq.e_plus)))
    return CheckResult("eigen-solution residuals", worst < 1e-11,
                       f"worst relative residual {worst:.2e} (< 1e-11)")


def check_dual_route(draws, n_max):
    worst = 0.0
    for params in draws:
        for n in (1, max(2, n_max // 2), n_max):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                grid = standard_grid(n)
                a = texture_closed_form(params, level, grid)
                b = texture_from_wavefunctions(params, level, grid)
                worst = max(worst,
                            float(np.max(np.abs(a.sx - b.sx))),
                            float(np.max(np.abs(a.sy - b.sy))),
                            float(np.max(np.abs(a.sz - b.sz))))
    return CheckResult("dual-route texture equivalence", worst < 1e-11,
                       f"worst pointwise difference {worst:.2e} (< 1e-11)")


def check_parity(draws, n_max):
    worst = wv = 0.0
    for params in draws:
        for n in (1, n_max):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                grid = standard_grid(n)
                t = texture_closed_form(params, level, grid)
                worst = max(worst,
                            float(np.max(np.abs(t.sx - t.sx[::-1]))),
                            float(np.max(np.abs(t.sy + t.sy[::-1]))),
                            float(np.max(np.abs(t.sz + t.sz[::-1]))))
                _, _, up_z, down_z = wavefunction_components(params, level, grid)
                wv = max(wv, float(np.max(np.abs(up_z - (-1) ** (n - 1) * down_z[::-1]))))
    return CheckResult("parity symmetry", worst < 1e-12 and wv < 1e-13,
                       f"texture residual {worst:.2e} (< 1e-12), "
                       f"wavefunction residual {wv:.2e} (< 1e-13)")


def check_hermitian(draws, n_max):
    worst_sy = 0.0
    worst_im = 0.0
    exact_theta = True
    for params in draws:
        hermitian = ModelParams(omega=params.omega, Omega=params.Omega, g=params.g)
        for n in range(1, n_max + 1):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                t = texture_closed_form(hermitian, level, standard_grid(n))
                worst_sy = max(worst_sy, float(np.max(np.abs(t.sy))))
                exact_theta &= tilting_angle(t.coeffs).theta_t == 0.0
                sol = eigen_solution(hermitian, level)
                worst_im = max(worst_im, abs(sol.im_energy) / (n + 1))
    return CheckResult("hermitian limit", worst_sy < 1e-13 and exact_theta and worst_im < 1e-14,
                       f"max |sigma_y| {worst_sy:.2e} (< 1e-13), theta_t exactly 0: {exact_theta}, "
                       f"max |Im E|/(n+1) {worst_im:.2e} (< 1e-14)")


def check_winding(draws, n_max):
    cases = mismatches = 0
    worst_residual = 0.0
    magnitude_ok = direction_ok = coupling_ok = True
    for params in draws:
        for n in range(1, n_max + 1):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                bq = block_quantities(params, n)
                node_sets = {c: nodes(params, level, c, bq) for c in ("z", "y", "x")}
                tex = texture_closed_form(params, level, winding_grid(params, level, node_sets["x"]), bq)
                coeffs = tex.coeffs
                for plane in ("zx", "yx"):
                    ns = winding_node_sum(node_sets[plane[0]], node_sets["x"])
                    integ = winding_integral(tex, plane)
                    cases += 1
                    mismatches += ns.signed != integ.signed
                    worst_residual = max(worst_residual, integ.residual)
                    magnitude_ok &= abs(ns.signed) == n
                    direction_ok &= ns.signed == -winding_direction(coeffs, plane) * n
                s_zx = winding_direction(coeffs, "zx")
                s_yx = winding_direction(coeffs, "yx")
                coupling_ok &= s_zx * s_yx == (1 if coeffs.c_z * coeffs.c_y > 0 else -1)
    passed = (mismatches == 0 and magnitude_ok and direction_ok
              and coupling_ok and worst_residual < 0.1)
    return CheckResult("winding laws", passed,
                       f"{cases} cases: method mismatches {mismatches}, |n_w|=n {magnitude_ok}, "
                       f"direction rule {direction_ok}, plane coupling {coupling_ok}, "
                       f"worst integral residual {worst_residual:.2e} (< 0.1)")


def check_tilting(draws, n_max):
    worst_ratio = worst_const = 0.0
    for params in draws:
        for n in (1, n_max):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                coeffs = texture_coefficients(params, level)
                tilt = tilting_angle(coeffs)
                if abs(tilt.theta_t) < 0.5 * math.pi - 1e-9:
                    worst_ratio = max(worst_ratio,
                                      abs(math.tan(tilt.theta_t) * coeffs.c_z - coeffs.c_y))
                t = texture_closed_form(params, level, standard_grid(n))
                amp = float(np.max(np.abs(t.sy))) + float(np.max(np.abs(t.sz))) + 1e-300
                worst_const = max(worst_const,
                                  float(np.max(np.abs(t.sy * coeffs.c_z - t.sz * coeffs.c_y))) / amp)
    return CheckResult("tilting identities", worst_ratio < 1e-12 and worst_const < 1e-12,
                       f"tan(theta)*Cz-Cy residual {worst_ratio:.2e}, "
                       f"pointwise ratio-constancy {worst_const:.2e} (both < 1e-12)")


CHECKS = (check_eigen, check_dual_route, check_parity, check_hermitian, _check_nodes,
          check_winding, check_tilting, _check_boundaries, _check_reversal_identity)


def reference_suite(draws=200, n_max=8, seed=20240901, quick=False):
    """run_suite with the reference checks: the same seeded draws, the same
    split into winding and light draws, the same order of results."""
    if quick:
        draws, n_max = min(draws, 50), min(n_max, 6)
    rng = np.random.default_rng(seed)
    winding_draws = [reference_draw(rng, n_max) for _ in range(max(4, draws // 4))]
    light_draws = winding_draws + [reference_draw(rng, n_max) for _ in range(draws - len(winding_draws))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRateWarning)
        return [check(winding_draws if check is check_winding else light_draws, n_max)
                for check in CHECKS]
