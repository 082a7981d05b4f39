"""Reference invariant checks: the seeded draws and the per-draw checks of
nhjc.verify written one draw and one level at a time through the scalar
public API, and the boundary checks on the scalar closed forms of
reference_boundaries with a record per substituted value. The library
evaluates them over whole blocks and chunks of draws; these loops are the
oracle its results are compared with, draw by draw, check by check and
string by string.

The winding check counts node sums with a scalar sign-sum over NodeSet.sign_at
(node_sum), written apart from topology.node_sum_windings, so a fault there
shows as a mismatch with the integral; the integral itself goes through
topology.winding_grids and integral_windings, the routine the library uses."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from nhjc import (
    LevelIndex,
    ModelParams,
    block_quantities,
    eigen_solution,
    nodes,
    phi_pair,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    texture_from_wavefunctions,
    tilting_angle,
    wavefunction_components,
    winding_direction,
)
from nhjc.errors import AntiWindingError, NegativeRateWarning, NhjcError, NoBoundaryError
from nhjc.topology import integral_windings, winding_grids
from nhjc.verify import BOUNDARY_MARGIN, CheckResult
from reference_boundaries import boundary_GR, boundary_R, boundary_SI


def reference_margin(params, n_values, etas=(-1, 1)):
    """verify.boundary_margin of one draw; a degenerate state raises."""
    margin = abs(params.composites().g_t)
    for n in n_values:
        bq = block_quantities(params, n)
        margin = min(margin, bq.R * bq.R / bq.scale_A)
        if bq.exceptional:
            return 0.0
        for eta in etas:
            coeffs = texture_coefficients(params, LevelIndex(n, eta))
            margin = min(margin, *bq.distances(coeffs.c_z, coeffs.c_y))
    return margin


def reference_draw(rng, n_max=8, high=1.2, margin=BOUNDARY_MARGIN):
    """One draw of verify.draw_sets, scoring one candidate at a time."""
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
            pair = [eigen_solution(params, LevelIndex(n, eta)) for eta in (-1, 1)]
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
        for n in (1, min(max(2, n_max // 2), n_max), n_max):
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


def check_nodes(draws, n_max):
    if len(draws) < 2:
        return CheckResult("invariant nodes", False, "needs at least two draws")
    worst_pos = 0.0
    counts_ok = shared = True
    for n in (1, min(2, n_max), n_max):
        sets = []
        for params in draws[:2]:
            level = LevelIndex(n, -1)
            nz = nodes(params, level, "z")
            ny = nodes(params, level, "y")
            nx = nodes(params, level, "x")
            counts_ok &= len(nz.positions) == 2 * n - 1 == len(ny.positions)
            counts_ok &= len(nx.positions) == 2 * n
            shared &= np.array_equal(ny.positions, nz.positions)
            # a Newton step from each node to its root: the roots of H_n
            # and H_{n-1} alternate, those of H_n first
            for i, x in enumerate(nz.positions.tolist()):
                k = n - i % 2
                lo, hi = phi_pair(k, x)
                worst_pos = max(worst_pos, abs(hi / (math.sqrt(2 * k) * lo - x * hi)))
            worst_pos = max(worst_pos, float(np.max(np.abs(ny.positions - nz.positions))))
            sets.append(nz.positions)
        worst_pos = max(worst_pos, float(np.max(np.abs(sets[0] - sets[1]))))
    return CheckResult("invariant nodes", counts_ok and shared and worst_pos < 1e-10,
                       f"counts 2n-1/2n: {counts_ok}, max position deviation "
                       f"{worst_pos:.2e} (< 1e-10)")


# sgn<sigma_c> at (-inf, +inf): the -H_n^2 term of sigma_x dominates both tails
END_SIGNS = {"z": (0, 0), "y": (0, 0), "x": (-1, -1)}


def _sign_sum(outer, other):
    """Quarter-sum over the sections of the outer NodeSet with the other
    component's signs at the section ends."""
    section = outer.signs
    if any(a != -b for a, b in zip(section, section[1:])):
        raise AntiWindingError(f"section signs of sigma_{outer.component} do not alternate")
    ends = END_SIGNS[other.component]
    signs_at = [ends[0], *(other.sign_at(float(x)) for x in outer.positions), ends[1]]
    return sum((signs_at[i + 1] - signs_at[i]) * section[i] for i in range(len(section)))


def node_sum(nodes_alpha, nodes_beta):
    """The signed node-sum winding in the plane of two NodeSets: both
    sign-sum forms, which must agree."""
    quarters_a = -_sign_sum(nodes_beta, nodes_alpha)
    quarters_b = _sign_sum(nodes_alpha, nodes_beta)
    if quarters_a % 4 or quarters_a != quarters_b:
        raise AntiWindingError(f"inconsistent node sums: {quarters_a}/4 vs {quarters_b}/4")
    return quarters_a // 4


def check_winding(draws, n_max):
    cases = mismatches = 0
    worst_residual = 0.0
    magnitude_ok = direction_ok = coupling_ok = True
    for params in draws:
        for n in range(1, n_max + 1):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                node_sets = {c: nodes(params, level, c) for c in ("z", "y", "x")}
                tex = texture_closed_form(params, level, winding_grids(n, node_sets["x"].positions[None])[0])
                coeffs = tex.coeffs
                for plane in ("zx", "yx"):
                    ns = node_sum(node_sets[plane[0]], node_sets["x"])
                    (integral,), (residual,) = integral_windings(tex, plane)
                    cases += 1
                    mismatches += ns != int(integral)
                    worst_residual = max(worst_residual, float(residual))
                    magnitude_ok &= abs(ns) == n
                    direction_ok &= ns == -winding_direction(coeffs, plane) * n
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


def check_boundaries(draws, n_max):
    worst = 0.0
    checked = 0
    for params in draws:
        n = max(1, n_max // 2)
        try:
            r_point = boundary_R(params, n, "Gamma")
            if r_point.valid:
                bq = block_quantities(params.with_value("Gamma", r_point.value), n)
                worst = max(worst, abs(bq.B) / bq.scale_B)
                checked += 1
        except NoBoundaryError:
            pass
        try:
            gr_point = boundary_GR(params, "Gamma", n=n)
            if gr_point.valid:
                at = params.with_value("Gamma", gr_point.value)
                bq = block_quantities(at, n)
                coeffs = texture_coefficients(at, LevelIndex(n, -1))
                worst = max(worst, abs(coeffs.c_z) / bq.scale_Cz)
                checked += 1
        except NoBoundaryError:
            pass
        try:
            at = params.with_value("gamma", boundary_SI(params, "gamma").value)
            bq = block_quantities(at, n)
            coeffs = texture_coefficients(at, LevelIndex(n, -1))
            worst = max(worst, abs(coeffs.c_y) / bq.scale_Cy)
            checked += 1
        except (NoBoundaryError, NhjcError):
            pass
    return CheckResult("boundary defining scalars", checked > 0 and worst < 1e-12,
                       f"{checked} boundary points, worst normalized scalar {worst:.2e} (< 1e-12)")


def theta_at_gamma(params, n, eta, Gamma):
    coeffs = texture_coefficients(params.with_value("Gamma", Gamma), LevelIndex(n, eta))
    return tilting_angle(coeffs).theta_t


@dataclass(frozen=True)
class ReversalReport:
    """verify._reversal_residuals at one point, with the antisymmetry
    residual |theta_below + theta_above| the check reads off it."""
    applicable: bool
    gamma_reversal: float
    identity_residual: float
    step: float
    antisymmetry_residual: float
    theta_below: float
    theta_above: float


def reversal_identity(params, n, eta=-1, eps=1e-6):
    """verify._reversal_residuals of one ModelParams: the probe step is eps,
    or a quarter of the distance to the GR point when level n keeps it."""
    c = params.composites()
    d_Ww, d_kg, g = c.d_Omega_omega, c.d_kappa_gamma, params.g
    blank = ReversalReport(
        applicable=False, gamma_reversal=math.nan, identity_residual=math.nan, step=math.nan,
        antisymmetry_residual=math.nan, theta_below=math.nan, theta_above=math.nan,
    )
    if g == 0.0:
        return blank
    point = boundary_R(params, n, "Gamma")
    if not point.valid:
        return replace(blank, gamma_reversal=point.value)
    bq = block_quantities(params.with_value("Gamma", point.value), n)
    term_root = 16.0 * bq.R * bq.R * g * g * n
    term_poly = (4.0 * n * g * g - d_kg * d_kg) * (4.0 * n * g * g + d_Ww * d_Ww)
    scale = max(abs(term_root), abs(term_poly), 1e-300)
    step = eps
    try:
        gr_point = boundary_GR(params, "Gamma", n=n)
        if gr_point.valid:
            step = min(eps, abs(gr_point.value - point.value) / 4)
    except NoBoundaryError:
        pass
    theta_below = theta_at_gamma(params, n, eta, point.value - step)
    theta_above = theta_at_gamma(params, n, eta, point.value + step)
    return ReversalReport(
        applicable=True,
        gamma_reversal=point.value,
        identity_residual=abs(term_root + term_poly) / scale,
        step=step,
        antisymmetry_residual=abs(theta_below + theta_above),
        theta_below=theta_below,
        theta_above=theta_above,
    )


def check_reversal_identity(draws, n_max):
    eps = 1e-6
    worst_id = worst_anti = 0.0
    applicable = 0
    anti_ok = True

    def probe(params, n):
        nonlocal applicable, worst_id, worst_anti, anti_ok
        report = reversal_identity(params, n, eps=eps)
        if not report.applicable:
            return
        applicable += 1
        worst_id = max(worst_id, report.identity_residual)
        worst_anti = max(worst_anti, report.antisymmetry_residual)
        step = report.step
        slope = max(
            abs(report.theta_below - theta_at_gamma(params, n, -1, report.gamma_reversal - 2 * step)),
            abs(report.theta_above - theta_at_gamma(params, n, -1, report.gamma_reversal + 2 * step)),
        ) / step
        anti_ok &= report.antisymmetry_residual < max(1e-4, 20.0 * step * slope)

    for params in draws:
        for n in range(1, min(5, n_max) + 1):
            probe(params, n)
    base = ModelParams(omega=0.9, Omega=1.0, g=0.1 * math.sqrt(0.9) / 2,
                       kappa=0.5, gamma=0.2)
    strict = [reversal_identity(base, n, eps=eps) for n in range(1, 6)]
    applicable += sum(r.applicable for r in strict)
    strict_ok = all(r.applicable and r.identity_residual < 1e-10
                    and r.antisymmetry_residual < 1e-4 for r in strict)
    return CheckResult("reversal-closure identity",
                       worst_id < 1e-10 and anti_ok and strict_ok,
                       f"{applicable} applicable points, identity residual {worst_id:.2e} "
                       f"(< 1e-10), worst tilt antisymmetry {worst_anti:.2e} "
                       f"(slope-aware bound; reference config < 1e-4: {strict_ok})")


CHECKS = (check_eigen, check_dual_route, check_parity, check_hermitian, check_nodes,
          check_winding, check_tilting, check_boundaries, check_reversal_identity)


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
