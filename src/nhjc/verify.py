"""Self-contained invariant suite behind the `verify` CLI command.

Every check draws reproducible random parameter sets (fixed default seed),
keeps them a safe margin away from the analytic boundaries, and validates the
core identities of the package against independent evaluations: complex
block arithmetic, 2x2 matrix-vector residuals, dual-route textures, parity,
node invariance, winding laws by both methods, tilting identities, boundary
defining scalars, and the reversal-closure identity.

The checks form one table, _CHECKS: each entry holds the name it reports,
its bounds (each written once there and printed from there), the function
that evaluates it over a list of draws and a list of levels, and the levels
run_suite runs it at for a given n_max. run_suite goes through the table in
order; the acceptance gate (tests/test_acceptance.py, criteria 2-7) runs the
winding, hermitian, dual-route, parity and node entries on its own draws and
levels and reads the reversal entry's bounds for criterion 9.

The margin rule mirrors the acceptance contract: a draw is rejected while,
for any tested (n, eta), its branch cut (|B| under A < 0), Cz, Cy or R^2 is
within 1e-3 of zero relative to the natural scale of its own terms, or |g~|
is within 1e-3 of the degenerate line. The scales are those of
spectrum.BlockQuantities (scale_B, scale_Cz, scale_Cy, scale_A), the same
ones the sweep's on_boundary flag uses.

The per-draw checks evaluate all their draws at once: the draws form a
ParamGrid of one row each, which block_quantities and the public functions
built on it take in place of ModelParams, in chunks of about _CHUNK_POINTS
points so that memory stays flat however many draws are asked for. The
boundary and reversal-identity checks solve the R/GR/SI closed forms for
all draws in one call per family and level (boundaries._solve, which the
sweep overlays use too), so the kernel runs as often for 12 draws as for
200. Every residual is bit for bit what a loop over the draws gives (the
loops are kept as the tests' reference). An error raised for one draw names
its index in the seeded sequence, its six parameters and the level. The
draws themselves are scored in blocks of candidates the same way
(draw_sets), accepted in the order a one-at-a-time loop accepts them. Only
the node check still goes draw by draw, on its first two draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .boundaries import _solve
from .errors import NhjcError, ValidationError
from .oscillator import hermite_roots
from .params import N_MAX, PARAM_NAMES, LevelIndex, ModelParams, ParamGrid, _complex_array, _replaced, elementwise
from .spectrum import block_quantities, branch_solution, eigen_solution
from .texture import (
    STANDARD_POINTS,
    branch_coefficients,
    coefficient_ratio,
    nodes,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    texture_from_wavefunctions,
    wavefunction_components,
    x_node_arrays,
    zy_node_arrays,
)
from .topology import (
    _theta_at_gamma,
    integral_windings,
    node_sum_windings,
    tilting_angle,
    verify_reversal_identity,
    winding_direction,
    winding_grids,
)

__all__ = ["CheckResult", "run_suite", "draw_sets", "draw_params", "boundary_margin"]

DEFAULT_SEED = 20240901

BOUNDARY_MARGIN = 1e-3

# profile samples (draws x grid points x profiles held) evaluated at once;
# the draws of a check go through in chunks of about this many, which bounds
# the suite's memory
_CHUNK_POINTS = 2 ** 14

_square = elementwise(lambda z: z ** 2, complex)
_abs, _tan = elementwise(abs), elementwise(math.tan)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def boundary_margin(params: ModelParams | ParamGrid, n_values, etas=(-1, 1)) -> float | np.ndarray:
    """Smallest normalized distance of the draw from any analytic boundary,
    the exceptional set, or the degenerate line, over the tested levels; a
    nan distance is skipped. Going through the levels in order, the first
    exceptional block makes it 0.0 and the first degenerate state nan (no
    margin). Over a ParamGrid, an array of margins, one per point."""
    grid = _draw_grid([params]) if isinstance(params, ModelParams) else params
    margin = _abs(grid.composites().g_t)  # degenerate line g~ = 0 (unit natural scale)
    settled = np.zeros(margin.shape, bool)  # margin fixed by an exceptional block or degenerate state
    fixed = np.zeros(margin.shape)
    for n in n_values:
        bq = block_quantities(grid, n)
        margin = np.fmin(margin, bq.R * bq.R / bq.scale_A)
        events = [(bq.exceptional, 0.0)]
        for eta in etas:
            events.append((branch_solution(grid, LevelIndex(n, eta), bq)[1], math.nan))
            coeffs = branch_coefficients(grid, eta, bq)
            margin = functools.reduce(np.fmin, bq.distances(coeffs.c_z, coeffs.c_y), margin)
        for flags, value in events:
            fixed[flags & ~settled] = value
            settled |= flags
    margin = np.where(settled, fixed, margin)
    return margin.item() if isinstance(params, ModelParams) else margin


def draw_sets(
    rng: np.random.Generator,
    count: int,
    n_max: int = 8,
    high: float = 1.2,
    margin: float = BOUNDARY_MARGIN,
) -> list[ModelParams]:
    """count parameter sets, each component uniform in [0, high], each
    redrawn until it sits at least `margin` away from every boundary for
    n = 1..n_max (and omega, Omega >= 1e-3). Candidates are scored in blocks
    of as many as are still missing, so no block draws past the last set
    accepted and rng ends where drawing the candidates one at a time leaves
    it: the sets are those of count draw_params calls."""
    n_values = range(1, n_max + 1)
    sets = []
    while len(sets) < count:
        block = rng.uniform(0.0, high, (count - len(sets), 6))  # columns in PARAM_NAMES order
        usable = np.flatnonzero((block[:, 0] >= 1e-3) & (block[:, 1] >= 1e-3))
        margins = boundary_margin(ParamGrid(*block[usable].T), n_values)
        sets += [ModelParams(*block[i].tolist()) for i in usable[margins >= margin]]
    return sets


def draw_params(
    rng: np.random.Generator,
    n_max: int = 8,
    high: float = 1.2,
    margin: float = BOUNDARY_MARGIN,
) -> ModelParams:
    """One parameter set, each component uniform in [0, high], redrawn until
    it sits at least `margin` away from every boundary for n = 1..n_max."""
    return draw_sets(rng, 1, n_max, high, margin)[0]


def _draw_grid(draws) -> ParamGrid:
    """The draws as a ParamGrid of one row each (shape (draws, 1))."""
    return ParamGrid(**{name: np.array([[getattr(p, name)] for p in draws]) for name in PARAM_NAMES})


def _levels(grid: ParamGrid, ns, evaluate, points=lambda n: STANDARD_POINTS) -> list[np.ndarray]:
    """evaluate(chunk, bq, level) for each level n in ns and eta = -1, +1,
    over chunks of the draws in grid of about _CHUNK_POINTS points (points(n)
    per draw), block n evaluated once per chunk. Returns each per-draw array
    evaluate returns, joined over all chunks and levels. A NhjcError names
    its draw (index in the seeded sequence and parameters) and level."""
    parts = []
    for n in dict.fromkeys(ns):
        step = max(1, _CHUNK_POINTS // points(n))
        for start in range(0, len(grid.g), step):
            chunk = grid.take(slice(start, start + step))
            bq = block_quantities(chunk, n)
            for eta in (-1, 1):
                try:
                    parts.append(evaluate(chunk, bq, LevelIndex(n, eta)))
                except NhjcError as exc:
                    if exc.index is None:
                        raise type(exc)(f"{exc} (n={n}, eta={eta})") from exc
                    values = ", ".join(f"{name}={getattr(chunk, name)[exc.index, 0].item()!r}"
                                       for name in PARAM_NAMES)
                    raise type(exc)(f"{exc} (draw {start + exc.index}: {values}, n={n}, eta={eta})",
                                    index=start + exc.index) from exc
    return [np.concatenate([np.ravel(a) for a in field]) for field in zip(*parts)]


def _worst(*arrays) -> float:
    """Largest of the values, at least 0.0; nan if any is nan."""
    return float(np.max([0.0, *map(np.max, arrays)]))


def _rows_max(a) -> np.ndarray:
    """max |a| along each row."""
    return np.max(np.abs(a), axis=-1)


def _bound_text(bound: float) -> str:
    """A bound as the table writes it: the shorter of repr (0.1) and the
    one-digit exponent form (1e-4, where repr gives 0.0001)."""
    return min(repr(bound), f"{bound:.0e}".replace("e-0", "e-"), key=len)


def _eigen_residuals(chunk, bq, level):
    n = level.n
    sol = eigen_solution(chunk, level, bq)
    other = eigen_solution(chunk, LevelIndex(n, -level.eta), bq)
    c = chunk.composites()
    direct = _square(bq.e_minus) + n * _square(c.g_t)
    matrix = np.stack(((n - 1) * c.omega_t + 0.5 * c.Omega_t, bq.off,
                       bq.off, n * c.omega_t - 0.5 * c.Omega_t), axis=-1).reshape(-1, 2, 2)
    flat = matrix.reshape(-1, 4)  # the Frobenius norm, summed as np.linalg.norm sums it
    norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    vec = np.concatenate((sol.c_up, sol.c_down), axis=-1)
    return (_abs(direct - _complex_array(bq.A, -bq.B)) / np.maximum(1.0, _abs(direct)),
            _rows_max((matrix @ vec[..., None])[..., 0] - sol.energy * vec) / norm,
            _abs(other.energy + sol.energy - 2 * bq.e_plus) / np.maximum(1.0, _abs(bq.e_plus)))


def _eigen(draws, levels, residual):
    worst = _worst(*_levels(_draw_grid(draws), levels, _eigen_residuals, lambda n: 1))
    return worst < residual, f"worst relative residual {worst:.2e} (< {_bound_text(residual)})"


def _dual_route_difference(chunk, bq, level):
    grid = standard_grid(level.n)
    a = texture_closed_form(chunk, level, grid, bq)
    b = texture_from_wavefunctions(chunk, level, grid, bq)
    return _rows_max(a.sx - b.sx), _rows_max(a.sy - b.sy), _rows_max(a.sz - b.sz)


def _dual_route(draws, levels, difference):
    # both routes' profiles are held at once
    worst = _worst(*_levels(_draw_grid(draws), levels, _dual_route_difference, lambda n: 2 * STANDARD_POINTS))
    return worst < difference, f"worst pointwise difference {worst:.2e} (< {_bound_text(difference)})"


def _parity_residuals(chunk, bq, level):
    grid = standard_grid(level.n)
    t = texture_closed_form(chunk, level, grid, bq)
    _, _, up_z, down_z = wavefunction_components(chunk, level, grid, bq)
    return (_rows_max(t.sx - t.sx[:, ::-1]), _rows_max(t.sy + t.sy[:, ::-1]),
            _rows_max(t.sz + t.sz[:, ::-1]), _rows_max(up_z - (-1) ** (level.n - 1) * down_z[:, ::-1]))


def _parity(draws, levels, texture, wavefunction):
    *sigma, wave = _levels(_draw_grid(draws), levels, _parity_residuals, lambda n: 2 * STANDARD_POINTS)
    worst, wv = _worst(*sigma), _worst(wave)
    return (worst < texture and wv < wavefunction,
            f"texture residual {worst:.2e} (< {_bound_text(texture)}), "
            f"wavefunction residual {wv:.2e} (< {_bound_text(wavefunction)})")


def _hermitian_residuals(chunk, bq, level):
    t = texture_closed_form(chunk, level, standard_grid(level.n), bq)
    sol = eigen_solution(chunk, level, bq)
    return (_rows_max(t.sy), tilting_angle(t.coeffs).theta_t == 0.0,
            np.abs(sol.im_energy) / (level.n + 1))


def _hermitian(draws, levels, sigma_y, im_energy):
    """The draws with their rates set to zero."""
    hermitian = _draw_grid([ModelParams(omega=p.omega, Omega=p.Omega, g=p.g) for p in draws])
    sy, zero_theta, im = _levels(hermitian, levels, _hermitian_residuals)
    worst_sy, exact_theta, worst_im = _worst(sy), bool(zero_theta.all()), _worst(im)
    return (worst_sy < sigma_y and exact_theta and worst_im < im_energy,
            f"max |sigma_y| {worst_sy:.2e} (< {_bound_text(sigma_y)}), theta_t exactly 0: {exact_theta}, "
            f"max |Im E|/(n+1) {worst_im:.2e} (< {_bound_text(im_energy)})")


def _nodes(draws, levels, position):
    """The public nodes() of the first two draws at eta = -1: counts 2n-1
    (sigma_z, sigma_y) and 2n (sigma_x), the sigma_y nodes exactly the
    sigma_z ones, and both draws' at the roots of H_{n-1} and H_n."""
    if len(draws) < 2:
        return False, "needs at least two draws"
    worst_pos = 0.0
    counts_ok = shared = True
    for n in levels:
        union = np.sort(np.concatenate((hermite_roots(n - 1) if n > 1 else np.empty(0),
                                        hermite_roots(n))))
        sets = []
        for params in draws[:2]:
            level = LevelIndex(n, -1)
            bq = block_quantities(params, n)
            nz, ny, nx = (nodes(params, level, component, bq).positions for component in "zyx")
            counts_ok &= len(nz) == 2 * n - 1 == len(ny)
            counts_ok &= len(nx) == 2 * n
            shared &= np.array_equal(ny, nz)
            worst_pos = max(worst_pos, float(np.max(np.abs(nz - union))))
            worst_pos = max(worst_pos, float(np.max(np.abs(ny - nz))))
            sets.append(nz)
        worst_pos = max(worst_pos, float(np.max(np.abs(sets[0] - sets[1]))))
    return (counts_ok and shared and worst_pos < position,
            f"counts 2n-1/2n: {counts_ok}, max position deviation {worst_pos:.2e} (< {_bound_text(position)})")


def _winding_laws(chunk, bq, level):
    """Per draw: method mismatches, worst integral residual, and whether
    |n_w| = n, the direction rule and the plane coupling hold."""
    n = level.n
    sol = eigen_solution(chunk, level, bq)
    x_nodes = x_node_arrays(n, coefficient_ratio(sol.c_up, sol.c_down).ravel())
    grids, counts = winding_grids(n, x_nodes[0])
    tex = texture_closed_form(chunk, level, grids, bq)
    mismatches = residual = 0
    magnitude = direction = True
    for plane in ("zx", "yx"):
        amp = tex.coeffs.c_z if plane == "zx" else tex.coeffs.c_y
        signed = node_sum_windings(plane, zy_node_arrays(n, amp.ravel()), x_nodes)
        integral, plane_residual = integral_windings(tex, plane, counts)
        mismatches = mismatches + (signed != integral)
        residual = np.maximum(residual, plane_residual)
        magnitude = magnitude & (np.abs(signed) == n)
        direction = direction & (signed == -winding_direction(tex.coeffs, plane).ravel() * n)
    coupling = (winding_direction(tex.coeffs, "zx") * winding_direction(tex.coeffs, "yx")
                == np.where(tex.coeffs.c_z * tex.coeffs.c_y > 0, 1, -1))
    return mismatches, residual, magnitude, direction, coupling


def _winding(draws, levels, residual):
    # a grid is the standard one plus 90 shell points around each of the 4n - 1 nodes
    mismatches, worst, magnitude, direction, coupling = _levels(
        _draw_grid(draws), levels, _winding_laws, lambda n: STANDARD_POINTS + 90 * (4 * n - 1))
    cases, mismatches, worst = 2 * len(mismatches), int(mismatches.sum()), _worst(worst)
    magnitude_ok, direction_ok, coupling_ok = (bool(a.all()) for a in (magnitude, direction, coupling))
    return (mismatches == 0 and magnitude_ok and direction_ok and coupling_ok and worst < residual,
            f"{cases} cases: method mismatches {mismatches}, |n_w|=n {magnitude_ok}, "
            f"direction rule {direction_ok}, plane coupling {coupling_ok}, "
            f"worst integral residual {worst:.2e} (< {_bound_text(residual)})")


def _tilting_residuals(chunk, bq, level):
    coeffs = texture_coefficients(chunk, level, bq)
    theta = tilting_angle(coeffs).theta_t
    ratio = np.where(np.abs(theta) < 0.5 * math.pi - 1e-9,
                     np.abs(_tan(theta) * coeffs.c_z - coeffs.c_y), 0.0)
    t = texture_closed_form(chunk, level, standard_grid(level.n), bq)
    amp = _rows_max(t.sy) + _rows_max(t.sz) + 1e-300
    return ratio, _rows_max(t.sy * coeffs.c_z - t.sz * coeffs.c_y) / amp


def _tilting(draws, levels, residual):
    worst_ratio, worst_const = map(_worst, _levels(_draw_grid(draws), levels, _tilting_residuals))
    return (worst_ratio < residual and worst_const < residual,
            f"tan(theta)*Cz-Cy residual {worst_ratio:.2e}, "
            f"pointwise ratio-constancy {worst_const:.2e} (both < {_bound_text(residual)})")


def _boundary_scalars(draws, levels, scalar):
    """B at R, Cz at GR (both solved for Gamma) and Cy at SI (solved for
    gamma), each over its own scale, at eta = -1."""
    grid = _draw_grid(draws)
    scalars = []
    for n in levels:
        level = LevelIndex(n, -1)
        r = _solve(grid, "R", "Gamma", n)
        scalars.append(np.abs(r.block.B[r.valid]) / r.block.scale_B[r.valid])
        gr = _solve(grid, "GR", "Gamma", n)
        at = _replaced(grid.take(gr.valid), "Gamma", gr.value[gr.valid])
        bq = block_quantities(at, n)
        scalars.append(np.abs(texture_coefficients(at, level, bq).c_z) / bq.scale_Cz)
        # an SI point no record holds, or where the state is undefined, is skipped
        si = _solve(grid, "SI", "gamma", n)
        held = si.valid & np.isfinite(si.value)
        at = _replaced(grid.take(held), "gamma", si.value[held])
        bq = block_quantities(at, n)
        defined = ~(bq.exceptional | branch_solution(at, level, bq)[1])
        scalars.append((np.abs(branch_coefficients(at, level.eta, bq).c_y) / bq.scale_Cy)[defined])
    checked = sum(map(len, scalars))
    worst = max([0.0, *np.concatenate(scalars).tolist()])
    return (checked > 0 and worst < scalar,
            f"{checked} boundary points, worst normalized scalar {worst:.2e} (< {_bound_text(scalar)})")


def _reversal_identity(draws, levels, identity, antisymmetry):
    """The draws at each level, plus the reference configuration at n = 1..5
    at the strict antisymmetry bound."""
    eps = 1e-6
    grid = _draw_grid(draws)
    worst_id, worst_anti = [0.0], [0.0]
    anti_ok = True
    for n in levels:
        report = verify_reversal_identity(grid, n, eps=eps)
        held = report.applicable
        at, gamma_r = grid.take(held), report.gamma_reversal[held]
        residual = report.antisymmetry_residual[held]
        worst_id += report.identity_residual[held].tolist()
        worst_anti += residual.tolist()
        # the antisymmetry residual grows linearly with the smooth tilt slope;
        # allow that first-order term on generic draws
        slope = np.maximum(
            np.abs(report.theta_below[held] - _theta_at_gamma(at, n, -1, gamma_r - 2 * eps)),
            np.abs(report.theta_above[held] - _theta_at_gamma(at, n, -1, gamma_r + 2 * eps)),
        ) / eps
        anti_ok &= bool(np.all(residual < np.maximum(antisymmetry, 20.0 * eps * slope)))
    applicable = len(worst_id) - 1
    worst_id, worst_anti = max(worst_id), max(worst_anti)
    base = ModelParams(omega=0.9, Omega=1.0, g=0.1 * math.sqrt(0.9) / 2,
                       kappa=0.5, gamma=0.2)
    strict = [verify_reversal_identity(base, n, eps=eps) for n in range(1, 6)]
    applicable += sum(r.applicable for r in strict)
    strict_ok = all(r.applicable and r.identity_residual < identity
                    and r.antisymmetry_residual < antisymmetry for r in strict)
    return (worst_id < identity and anti_ok and strict_ok,
            f"{applicable} applicable points, identity residual {worst_id:.2e} "
            f"(< {_bound_text(identity)}), worst tilt antisymmetry {worst_anti:.2e} "
            f"(slope-aware bound; reference config < {_bound_text(antisymmetry)}: {strict_ok})")


@dataclass(frozen=True)
class _Check:
    """One invariant check: the name it reports, its bounds (keyword
    arguments of judge), the levels run_suite runs it at for a given n_max,
    and judge(draws, levels, **bounds) -> (passed, detail)."""

    name: str
    bounds: dict[str, float]
    levels: Callable[[int], Iterable[int]]
    judge: Callable[..., tuple[bool, str]]
    capped: bool = False  # run_suite gives it only the capped winding draws

    def __call__(self, draws: list[ModelParams], levels: Iterable[int]) -> CheckResult:
        return CheckResult(self.name, *self.judge(draws, levels, **self.bounds))


def _every_level(n_max):
    return range(1, n_max + 1)


def _ends(n_max):
    return 1, n_max


# The one table of checks: run_suite runs each entry in this order, and the
# acceptance gate runs entries on its own draws and levels and reads their
# bounds.
_CHECKS: dict[str, _Check] = {
    "eigen": _Check("eigen-solution residuals", {"residual": 1e-11}, _every_level, _eigen),
    "dual-route": _Check("dual-route texture equivalence", {"difference": 1e-11},
                         lambda n_max: (1, max(2, n_max // 2), n_max), _dual_route),
    "parity": _Check("parity symmetry", {"texture": 1e-12, "wavefunction": 1e-13}, _ends, _parity),
    "hermitian": _Check("hermitian limit", {"sigma_y": 1e-13, "im_energy": 1e-14}, _every_level,
                        _hermitian),
    "nodes": _Check("invariant nodes", {"position": 1e-10}, lambda n_max: (1, 2, n_max), _nodes),
    "winding": _Check("winding laws", {"residual": 0.1}, _every_level, _winding, capped=True),
    "tilting": _Check("tilting identities", {"residual": 1e-12}, _ends, _tilting),
    "boundaries": _Check("boundary defining scalars", {"scalar": 1e-12},
                         lambda n_max: (max(1, n_max // 2),), _boundary_scalars),
    "reversal-identity": _Check("reversal-closure identity", {"identity": 1e-10, "antisymmetry": 1e-4},
                                lambda n_max: range(1, min(5, n_max) + 1), _reversal_identity),
}


def run_suite(draws: int = 200, n_max: int = 8, seed: int = DEFAULT_SEED,
              quick: bool = False) -> list[CheckResult]:
    """Run every invariant check; quick mode shrinks to 50 draws, n <= 6.

    draws >= 1 (at least 4 are drawn), 1 <= n_max <= N_MAX and seed >= 0,
    else ValidationError.
    """
    if not draws >= 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    if not 1 <= n_max <= N_MAX:
        raise ValidationError(f"n_max must be in [1, {N_MAX}] (validity domain), got {n_max}")
    if not seed >= 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if quick:
        draws, n_max = min(draws, 50), min(n_max, 6)
    rng = np.random.default_rng(seed)
    # windings dominate the cost; cap their draw count, reuse for the rest
    winding_draws = draw_sets(rng, max(4, draws // 4), n_max)
    light_draws = winding_draws + draw_sets(rng, draws - len(winding_draws), n_max)
    return [check(winding_draws if check.capped else light_draws, check.levels(n_max))
            for check in _CHECKS.values()]
