"""Self-contained invariant suite behind the `verify` CLI command.

Every check draws reproducible random parameter sets (fixed default seed),
keeps them a safe margin away from the analytic boundaries, and validates the
core identities of the package against independent evaluations: complex
block arithmetic, 2x2 matrix-vector residuals, dual-route textures, parity,
node invariance, winding laws by both methods, tilting identities, boundary
defining scalars, and the reversal-closure identity.

The margin rule mirrors the acceptance contract: a draw is rejected while,
for any tested (n, eta), its branch cut (|B| under A < 0), Cz, Cy or R^2 is
within 1e-3 of zero relative to the natural scale of its own terms, or |g~|
is within 1e-3 of the degenerate line. The scales are those of
spectrum.BlockQuantities (scale_B, scale_Cz, scale_Cy, scale_A), the same
ones the sweep's on_boundary flag uses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundaries import boundary_GR, boundary_R, boundary_SI
from .errors import NegativeRateWarning, NhjcError, NoBoundaryError
from .oscillator import hermite_roots
from .params import LevelIndex, ModelParams
from .spectrum import block_quantities, eigen_solution
from .texture import (
    nodes,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    texture_from_wavefunctions,
    wavefunction_components,
)
from .topology import (
    _theta_at_gamma,
    tilting_angle,
    verify_reversal_identity,
    winding_direction,
    winding_grid,
    winding_integral,
    winding_node_sum,
)

__all__ = ["CheckResult", "run_suite", "draw_params", "boundary_margin"]

DEFAULT_SEED = 20240901

BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def boundary_margin(params: ModelParams, n_values, etas=(-1, 1)) -> float:
    """Smallest normalized distance of the draw from any analytic boundary,
    the exceptional set, or the degenerate line, over the tested levels."""
    margin = abs(params.composites().g_t)  # degenerate line g~ = 0 (unit natural scale)
    for n in n_values:
        bq = block_quantities(params, n)
        margin = min(margin, bq.R * bq.R / bq.scale_A)
        if bq.exceptional:
            return 0.0
        for eta in etas:
            coeffs = texture_coefficients(params, LevelIndex(n, eta), bq)
            margin = min(margin, *bq.distances(coeffs.c_z, coeffs.c_y))
    return margin


def draw_params(
    rng: np.random.Generator,
    n_max: int = 8,
    high: float = 1.2,
    margin: float = BOUNDARY_MARGIN,
) -> ModelParams:
    """One parameter set, each component uniform in [0, high], redrawn until
    it sits at least `margin` away from every boundary for n = 1..n_max."""
    n_values = range(1, n_max + 1)
    while True:
        omega, Omega, g, kappa, gamma, Gamma = rng.uniform(0.0, high, 6)
        if omega < 1e-3 or Omega < 1e-3:
            continue
        params = ModelParams(omega=float(omega), Omega=float(Omega), g=float(g),
                             kappa=float(kappa), gamma=float(gamma), Gamma=float(Gamma))
        try:
            if boundary_margin(params, n_values) >= margin:
                return params
        except NhjcError:
            continue


def _block_matrix(params: ModelParams, n: int) -> np.ndarray:
    c = params.composites()
    off = c.g_t * math.sqrt(n)
    return np.array([
        [(n - 1) * c.omega_t + 0.5 * c.Omega_t, off],
        [off, n * c.omega_t - 0.5 * c.Omega_t],
    ])


def _check_eigen(draws, n_max) -> CheckResult:
    worst = 0.0
    for params in draws:
        for n in range(1, n_max + 1):
            bq = block_quantities(params, n)
            direct = bq.e_minus ** 2 + n * params.composites().g_t ** 2
            worst = max(worst, abs(direct - complex(bq.A, -bq.B)) / max(1.0, abs(direct)))
            matrix = _block_matrix(params, n)
            norm = np.linalg.norm(matrix)
            for eta in (-1, 1):
                sol = eigen_solution(params, LevelIndex(n, eta))
                vec = np.array([sol.c_up, sol.c_down])
                worst = max(worst, float(np.max(np.abs(matrix @ vec - sol.energy * vec))) / norm)
            pair = [eigen_solution(params, LevelIndex(n, eta)).energy for eta in (-1, 1)]
            worst = max(worst, abs(pair[0] + pair[1] - 2 * bq.e_plus) / max(1.0, abs(bq.e_plus)))
    return CheckResult("eigen-solution residuals", worst < 1e-11,
                       f"worst relative residual {worst:.2e} (< 1e-11)")


def _check_dual_route(draws, n_max) -> CheckResult:
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


def _check_parity(draws, n_max) -> CheckResult:
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


def _check_hermitian(draws, n_max) -> CheckResult:
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


def _check_nodes(draws, n_max) -> CheckResult:
    if len(draws) < 2:
        return CheckResult("invariant nodes", False, "needs at least two draws")
    worst_pos = 0.0
    counts_ok = True
    for n in (1, 2, n_max):
        union = np.sort(np.concatenate((hermite_roots(n - 1) if n > 1 else np.empty(0),
                                        hermite_roots(n))))
        sets = []
        for params in draws[:2]:
            level = LevelIndex(n, -1)
            nz = nodes(params, level, "z")
            ny = nodes(params, level, "y")
            nx = nodes(params, level, "x")
            counts_ok &= len(nz.positions) == 2 * n - 1 == len(ny.positions)
            counts_ok &= len(nx.positions) == 2 * n
            worst_pos = max(worst_pos, float(np.max(np.abs(nz.positions - union))))
            worst_pos = max(worst_pos, float(np.max(np.abs(ny.positions - nz.positions))))
            sets.append(nz.positions)
        worst_pos = max(worst_pos, float(np.max(np.abs(sets[0] - sets[1]))))
    return CheckResult("invariant nodes", counts_ok and worst_pos < 1e-10,
                       f"counts 2n-1/2n: {counts_ok}, max position deviation "
                       f"{worst_pos:.2e} (< 1e-10)")


def _check_winding(draws, n_max) -> CheckResult:
    cases = mismatches = 0
    worst_residual = 0.0
    magnitude_ok = direction_ok = coupling_ok = True
    for params in draws:
        for n in range(1, n_max + 1):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                node_sets = {c: nodes(params, level, c) for c in ("z", "y", "x")}
                tex = texture_closed_form(params, level, winding_grid(params, level, node_sets["x"]))
                coeffs = tex.coeffs
                signed = {}
                for plane in ("zx", "yx"):
                    ns = winding_node_sum(node_sets[plane[0]], node_sets["x"])
                    integ = winding_integral(tex, plane)
                    cases += 1
                    mismatches += ns.signed != integ.signed
                    worst_residual = max(worst_residual, integ.residual)
                    magnitude_ok &= abs(ns.signed) == n
                    direction_ok &= ns.signed == -winding_direction(coeffs, plane) * n
                    signed[plane] = ns.signed
                s_zx = winding_direction(coeffs, "zx")
                s_yx = winding_direction(coeffs, "yx")
                coupling_ok &= s_zx * s_yx == (1 if coeffs.c_z * coeffs.c_y > 0 else -1)
    passed = (mismatches == 0 and magnitude_ok and direction_ok
              and coupling_ok and worst_residual < 0.1)
    return CheckResult("winding laws", passed,
                       f"{cases} cases: method mismatches {mismatches}, |n_w|=n {magnitude_ok}, "
                       f"direction rule {direction_ok}, plane coupling {coupling_ok}, "
                       f"worst integral residual {worst_residual:.2e} (< 0.1)")


def _check_tilting(draws, n_max) -> CheckResult:
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


def _check_boundaries(draws, n_max) -> CheckResult:
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
                coeffs = texture_coefficients(at, LevelIndex(n, -1), bq)
                worst = max(worst, abs(coeffs.c_z) / bq.scale_Cz)
                checked += 1
        except NoBoundaryError:
            pass
        try:
            at = params.with_value("gamma", boundary_SI(params, "gamma").value)
            bq = block_quantities(at, n)
            coeffs = texture_coefficients(at, LevelIndex(n, -1), bq)
            worst = max(worst, abs(coeffs.c_y) / bq.scale_Cy)
            checked += 1
        except (NoBoundaryError, NhjcError):
            pass
    return CheckResult("boundary defining scalars", checked > 0 and worst < 1e-12,
                       f"{checked} boundary points, worst normalized scalar {worst:.2e} (< 1e-12)")


def _check_reversal_identity(draws, n_max) -> CheckResult:
    eps = 1e-6
    worst_id = worst_anti = 0.0
    applicable = 0
    anti_ok = True

    def probe(params, n):
        nonlocal applicable, worst_id, worst_anti, anti_ok
        report = verify_reversal_identity(params, n, eps=eps)
        if not report.applicable:
            return
        applicable += 1
        worst_id = max(worst_id, report.identity_residual)
        worst_anti = max(worst_anti, report.antisymmetry_residual)
        # the antisymmetry residual grows linearly with the smooth tilt slope;
        # allow that first-order term on generic draws
        slope = max(
            abs(report.theta_below - _theta_at_gamma(params, n, -1, report.gamma_reversal - 2 * eps)),
            abs(report.theta_above - _theta_at_gamma(params, n, -1, report.gamma_reversal + 2 * eps)),
        ) / eps
        anti_ok &= report.antisymmetry_residual < max(1e-4, 20.0 * eps * slope)

    for params in draws:
        for n in range(1, min(5, n_max) + 1):
            probe(params, n)
    # always include the reference configuration at the strict bound
    base = ModelParams(omega=0.9, Omega=1.0, g=0.1 * math.sqrt(0.9) / 2,
                       kappa=0.5, gamma=0.2)
    strict = [verify_reversal_identity(base, n, eps=eps) for n in range(1, 6)]
    applicable += sum(r.applicable for r in strict)
    strict_ok = all(r.applicable and r.identity_residual < 1e-10
                    and r.antisymmetry_residual < 1e-4 for r in strict)
    return CheckResult("reversal-closure identity",
                       worst_id < 1e-10 and anti_ok and strict_ok,
                       f"{applicable} applicable points, identity residual {worst_id:.2e} "
                       f"(< 1e-10), worst tilt antisymmetry {worst_anti:.2e} "
                       f"(slope-aware bound; reference config < 1e-4: {strict_ok})")


_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("eigen", _check_eigen),
    ("dual-route", _check_dual_route),
    ("parity", _check_parity),
    ("hermitian", _check_hermitian),
    ("nodes", _check_nodes),
    ("winding", _check_winding),
    ("tilting", _check_tilting),
    ("boundaries", _check_boundaries),
    ("reversal-identity", _check_reversal_identity),
)


def run_suite(draws: int = 200, n_max: int = 8, seed: int = DEFAULT_SEED,
              quick: bool = False) -> list[CheckResult]:
    """Run every invariant check; quick mode shrinks to 50 draws, n <= 6."""
    if quick:
        draws, n_max = min(draws, 50), min(n_max, 6)
    rng = np.random.default_rng(seed)
    # windings dominate the cost; cap their draw count, reuse for the rest
    winding_draws = [draw_params(rng, n_max) for _ in range(max(4, draws // 4))]
    light_draws = winding_draws + [draw_params(rng, n_max) for _ in range(draws - len(winding_draws))]
    results = []
    with warnings.catch_warnings():
        # boundary values legitimately land at negative rates during the scan
        warnings.simplefilter("ignore", NegativeRateWarning)
        for _, check in _CHECKS:
            if check is _check_winding:
                results.append(check(winding_draws, n_max))
            else:
                results.append(check(light_draws, n_max))
    return results
