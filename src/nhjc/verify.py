"""Self-contained invariant suite behind the `verify` CLI command.

Every check draws reproducible random parameter sets (fixed default seed),
keeps them a safe margin away from the analytic boundaries, and validates the
core identities of the package against independent evaluations: complex
block arithmetic, 2x2 matrix-vector residuals, dual-route textures, parity,
node invariance, winding laws by both methods, tilting identities, boundary
defining scalars, and the reversal-closure identity.

The checks form one table, _CHECKS: each entry holds the name it reports,
its bounds (each written once there and printed from there), the function
that evaluates it over a grid of draws and a list of levels, and the levels
run_suite runs it at for a given n_max. run_suite goes through the table in
order; the acceptance gate (tests/test_acceptance.py, criteria 2-7 and 9)
runs entries on its own draws and levels.

The margin rule mirrors the acceptance contract: a draw is rejected while,
for any tested (n, eta), its branch cut (|B| under A < 0), Cz, Cy or R^2 is
within 1e-3 of zero relative to the natural scale of its own terms, or |g~|
is within 1e-3 of the degenerate line. The scales are those of
spectrum.BlockQuantities (scale_B, scale_Cz, scale_Cy, scale_A), the same
ones the sweep's on_boundary flag uses.

The draws are one ParamGrid of one row each (shape (draws, 1)) from
draw_sets to the report, and every check runs its levels through _levels in
chunks of params.chunks, so that memory stays flat however many draws are
asked for; the node, boundary and reversal checks at eta = -1 only.
The winding check reads topology.Windings, and the boundary and reversal
checks solve the closed forms over a chunk at once (boundaries._solve), as
the sweep does. Every residual is bit for bit what a loop over the draws
gives (the loops are kept as the tests' reference). An error raised for one
draw names its index in the seeded sequence, its six parameters, n and eta.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .boundaries import _solve
from .errors import NhjcError, ValidationError
from .oscillator import phi_pair
from .params import (PARAM_NAMES, SCALAR_SAMPLES, LevelIndex, ParamGrid, _complex_array, _replaced, batch_index,
                     check_level, chunks, elementwise, float_count, modulus, reference_config)
from .spectrum import block_quantities, branch_solution, eigen_solution
from .texture import (
    STANDARD_POINTS,
    branch_coefficients,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    texture_from_wavefunctions,
    wavefunction_components,
    zy_node_arrays,
)
from .topology import (
    PLANES,
    Windings,
    tilting_angle,
    winding_direction,
)

__all__ = ["CheckResult", "run_suite", "draw_sets", "boundary_margin"]

DEFAULT_SEED = 20240901

BOUNDARY_MARGIN = 1e-3

DRAW_HIGH = 1.2  # each drawn parameter is uniform in [0, DRAW_HIGH]
REVERSAL_EPS = 1e-6  # eps of _reversal_residuals, the reversal check's probe step

_square = elementwise(lambda z: z ** 2, complex)
_tan = elementwise(math.tan)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def boundary_margin(grid: ParamGrid, n_values, etas=(-1, 1)) -> np.ndarray:
    """Smallest normalized distance of each point of the grid from any
    analytic boundary, the exceptional set, or the degenerate line, over the
    tested levels; a nan distance is skipped. Going through the levels in
    order, the first exceptional block makes it 0.0 and the first degenerate
    state nan (no margin). An array of margins, one per point."""
    margin = modulus(grid.composites().g_t)  # degenerate line g~ = 0 (unit natural scale)
    settled = np.zeros(margin.shape, bool)  # margin fixed by an exceptional block or degenerate state
    fixed = np.zeros(margin.shape)
    for n in n_values:
        bq = block_quantities(grid, n)
        margin = np.fmin(margin, bq.R * bq.R / bq.scale_A)
        events = [(bq.exceptional, 0.0)]
        for eta in etas:
            events.append((branch_solution(grid, LevelIndex(n, eta))[1], math.nan))
            coeffs = branch_coefficients(grid, LevelIndex(n, eta))
            margin = functools.reduce(np.fmin, bq.distances(coeffs.c_z, coeffs.c_y), margin)
        for flags, value in events:
            fixed[flags & ~settled] = value
            settled |= flags
    return np.where(settled, fixed, margin)


def draw_sets(rng: np.random.Generator, count: int, n_max: int = 8, margin: float = BOUNDARY_MARGIN) -> ParamGrid:
    """count parameter sets as a ParamGrid of shape (count, 1), each component
    uniform in [0, DRAW_HIGH], each redrawn until it sits at least `margin`
    away from every boundary for n = 1..n_max (omega, Omega >= 1e-3). A block
    draws as many candidates as are still missing, so rng ends where drawing
    them one at a time leaves it, and the sets are those such a loop accepts.
    Each block is scored in chunks of params.chunks, a candidate counting
    SCALAR_SAMPLES for each level."""
    rows = np.empty((0, 6))  # columns in PARAM_NAMES order
    while len(rows) < count:
        block = rng.uniform(0.0, DRAW_HIGH, (float_count(count - len(rows), 6), 6))
        block = block[(block[:, 0] >= 1e-3) & (block[:, 1] >= 1e-3)]
        kept = np.empty(len(block), bool)
        for part in chunks(len(block), SCALAR_SAMPLES * max(1, n_max)):
            kept[part] = boundary_margin(ParamGrid(*block[part].T), range(1, n_max + 1)) >= margin
        rows = np.concatenate((rows, block[kept]))
    return ParamGrid(*(column[:, None] for column in rows.T.copy()))


def _levels(grid: ParamGrid, ns, evaluate, samples=lambda n: SCALAR_SAMPLES, etas=(-1, 1)) -> list[np.ndarray]:
    """evaluate(chunk, level) for each level n in ns and eta in etas, over
    chunks of the draws in grid (params.chunks, samples(n) per draw), which
    keep block n; each per-draw array evaluate returns, joined over all
    chunks and levels. A NhjcError names its draw and level."""
    parts = []
    for n in dict.fromkeys(ns):
        for rows in chunks(len(grid.g), samples(n)):
            chunk = grid.take(rows)
            for eta in etas:
                try:
                    with batch_index(rows):
                        parts.append(evaluate(chunk, LevelIndex(n, eta)))
                except NhjcError as exc:
                    if exc.index is None:
                        raise type(exc)(f"{exc} (n={n}, eta={eta})") from exc
                    values = ", ".join(f"{name}={getattr(grid, name)[exc.index, 0].item()!r}" for name in PARAM_NAMES)
                    raise type(exc)(f"{exc} (draw {exc.index}: {values}, n={n}, eta={eta})", index=exc.index) from exc
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


def _eigen_residuals(chunk, level):
    n = level.n
    sol = eigen_solution(chunk, level)
    other = eigen_solution(chunk, LevelIndex(n, -level.eta))
    bq, c = block_quantities(chunk, n), chunk.composites()
    direct = _square(bq.e_minus) + n * _square(c.g_t)
    matrix = np.stack(((n - 1) * c.omega_t + 0.5 * c.Omega_t, bq.off,
                       bq.off, n * c.omega_t - 0.5 * c.Omega_t), axis=-1).reshape(-1, 2, 2)
    flat = matrix.reshape(-1, 4)  # the Frobenius norm, summed as np.linalg.norm sums it
    norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    vec = np.concatenate((sol.c_up, sol.c_down), axis=-1)
    return (modulus(direct - _complex_array(bq.A, -bq.B)) / np.maximum(1.0, modulus(direct)),
            _rows_max((matrix @ vec[..., None])[..., 0] - sol.energy * vec) / norm,
            modulus(other.energy + sol.energy - 2 * bq.e_plus) / np.maximum(1.0, modulus(bq.e_plus)))


def _eigen(draws, levels, residual):
    worst = _worst(*_levels(draws, levels, _eigen_residuals))
    return worst < residual, f"worst relative residual {worst:.2e} (< {_bound_text(residual)})"


def _dual_route_difference(chunk, level):
    grid = standard_grid(level.n)
    a = texture_closed_form(chunk, level, grid)
    b = texture_from_wavefunctions(chunk, level, grid)
    return _rows_max(a.sx - b.sx), _rows_max(a.sy - b.sy), _rows_max(a.sz - b.sz)


def _dual_route(draws, levels, difference):
    # both routes' profiles are held at once
    worst = _worst(*_levels(draws, levels, _dual_route_difference, lambda n: 2 * STANDARD_POINTS))
    return worst < difference, f"worst pointwise difference {worst:.2e} (< {_bound_text(difference)})"


def _parity_residuals(chunk, level):
    grid = standard_grid(level.n)
    t = texture_closed_form(chunk, level, grid)
    _, _, up_z, down_z = wavefunction_components(chunk, level, grid)
    return (_rows_max(t.sx - t.sx[:, ::-1]), _rows_max(t.sy + t.sy[:, ::-1]),
            _rows_max(t.sz + t.sz[:, ::-1]), _rows_max(up_z - (-1) ** (level.n - 1) * down_z[:, ::-1]))


def _parity(draws, levels, texture, wavefunction):
    *sigma, wave = _levels(draws, levels, _parity_residuals, lambda n: 2 * STANDARD_POINTS)
    worst, wv = _worst(*sigma), _worst(wave)
    return (worst < texture and wv < wavefunction,
            f"texture residual {worst:.2e} (< {_bound_text(texture)}), "
            f"wavefunction residual {wv:.2e} (< {_bound_text(wavefunction)})")


def _hermitian_residuals(chunk, level):
    t = texture_closed_form(chunk, level, standard_grid(level.n))
    sol = eigen_solution(chunk, level)
    return (_rows_max(t.sy), tilting_angle(t.coeffs).theta_t == 0.0,
            np.abs(sol.im_energy) / (level.n + 1))


def _hermitian(draws, levels, sigma_y, im_energy):
    """The draws with their rates set to zero."""
    hermitian = ParamGrid(draws.omega, draws.Omega, draws.g, *[np.zeros_like(draws.g)] * 3)
    sy, zero_theta, im = _levels(hermitian, levels, _hermitian_residuals, lambda n: STANDARD_POINTS)
    worst_sy, exact_theta, worst_im = _worst(sy), bool(zero_theta.all()), _worst(im)
    return (worst_sy < sigma_y and exact_theta and worst_im < im_energy,
            f"max |sigma_y| {worst_sy:.2e} (< {_bound_text(sigma_y)}), theta_t exactly 0: {exact_theta}, "
            f"max |Im E|/(n+1) {worst_im:.2e} (< {_bound_text(im_energy)})")


def _node_deviations(chunk, level):
    """Per draw, from the node routines Windings uses: whether the counts are
    2n-1 (sigma_z and sigma_y share zy_node_arrays' positions) and 2n
    (sigma_x), and the largest Newton step |phi_k / phi_k'| (phi_k' = sqrt(2k)
    phi_{k-1} - x phi_k) from a sigma_z node to a root of H_n or H_{n-1},
    which interlace: a test apart from the Jacobi solve that placed them."""
    n, count = level.n, len(chunk.g)
    windings = Windings(chunk, level)
    nz, _ = zy_node_arrays(n, windings.coeffs.c_z)
    steps = [0.0]
    for k, x in ((n, nz[0::2]), (n - 1, nz[1::2])):
        lo, hi = phi_pair(k, x)
        steps.append(float(np.max(np.abs(hi / (math.sqrt(2 * k) * lo - x * hi)), initial=0.0)))
    return (np.full(count, len(nz) == 2 * n - 1 and windings.x_nodes[0].shape == (count, 2 * n)),
            np.full(count, max(steps)))


def _nodes(draws, levels, position):
    """The nodes of the first two draws at eta = -1."""
    if len(draws.g) < 2:
        return False, "needs at least two draws"
    counts, steps = _levels(draws.take(slice(0, 2)), levels, _node_deviations, lambda n: 2 * n, (-1,))
    counts_ok, worst_pos = bool(counts.all()), _worst(steps)
    return (counts_ok and worst_pos < position,
            f"counts 2n-1/2n: {counts_ok}, max position deviation {worst_pos:.2e} (< {_bound_text(position)})")


def _winding_laws(chunk, level):
    """Per draw: method mismatches, worst integral residual, and whether
    |n_w| = n, the direction rule and the plane coupling hold."""
    n = level.n
    windings = Windings(chunk, level)
    coeffs = windings.coeffs
    node_sums = {plane: windings.node_sums(plane) for plane in PLANES}
    mismatches = residual = 0
    magnitude = direction = True
    for plane, (integral, plane_residual) in windings.integrals(PLANES).items():
        signed = node_sums[plane]
        mismatches = mismatches + (signed != integral)
        residual = np.maximum(residual, plane_residual)
        magnitude = magnitude & (np.abs(signed) == n)
        direction = direction & (signed == -winding_direction(coeffs, plane).ravel() * n)
    coupling = (winding_direction(coeffs, "zx") * winding_direction(coeffs, "yx")
                == np.where(coeffs.c_z * coeffs.c_y > 0, 1, -1))
    return mismatches, residual, magnitude, direction, coupling


def _winding(draws, levels, residual):
    # Windings holds the 2n sigma_x nodes of each draw and integrates in chunks of its own
    mismatches, worst, magnitude, direction, coupling = _levels(draws, levels, _winding_laws, lambda n: 2 * n)
    cases, mismatches, worst = 2 * len(mismatches), int(mismatches.sum()), _worst(worst)
    magnitude_ok, direction_ok, coupling_ok = (bool(a.all()) for a in (magnitude, direction, coupling))
    return (mismatches == 0 and magnitude_ok and direction_ok and coupling_ok and worst < residual,
            f"{cases} cases: method mismatches {mismatches}, |n_w|=n {magnitude_ok}, "
            f"direction rule {direction_ok}, plane coupling {coupling_ok}, "
            f"worst integral residual {worst:.2e} (< {_bound_text(residual)})")


def _tilting_residuals(chunk, level):
    coeffs = texture_coefficients(chunk, level)
    theta = tilting_angle(coeffs).theta_t
    ratio = np.where(np.abs(theta) < 0.5 * math.pi - 1e-9,
                     np.abs(_tan(theta) * coeffs.c_z - coeffs.c_y), 0.0)
    t = texture_closed_form(chunk, level, standard_grid(level.n))
    amp = _rows_max(t.sy) + _rows_max(t.sz) + 1e-300
    return ratio, _rows_max(t.sy * coeffs.c_z - t.sz * coeffs.c_y) / amp


def _tilting(draws, levels, residual):
    worst_ratio, worst_const = map(_worst, _levels(draws, levels, _tilting_residuals, lambda n: STANDARD_POINTS))
    return (worst_ratio < residual and worst_const < residual,
            f"tan(theta)*Cz-Cy residual {worst_ratio:.2e}, "
            f"pointwise ratio-constancy {worst_const:.2e} (both < {_bound_text(residual)})")


def _boundary_residuals(chunk, level):
    """Per draw: B at R, Cz at GR (both solved for Gamma) and Cy at SI (solved
    for gamma), each over its own scale; nan where the draw has none."""
    n = level.n
    r, gr, si = (_solve(chunk, family, name, n) for family, name in (("R", "Gamma"), ("GR", "Gamma"), ("SI", "gamma")))
    # an SI point no record holds, or where the state is undefined, is skipped
    si_held = si.valid & np.isfinite(si.value)
    scalars = np.full((3, *chunk.g.shape), math.nan)
    scalars[0][r.valid] = np.abs(r.block.B[r.valid]) / r.block.scale_B[r.valid]
    with batch_index(gr.valid):
        at = _replaced(chunk.take(gr.valid), "Gamma", gr.value[gr.valid])
        scalars[1][gr.valid] = np.abs(texture_coefficients(at, level).c_z) / block_quantities(at, n).scale_Cz
    with batch_index(si_held):
        at = _replaced(chunk.take(si_held), "gamma", si.value[si_held])
        bq = block_quantities(at, n)
        defined = ~(bq.exceptional | branch_solution(at, level)[1])
        scalars[2][si_held] = np.where(defined, np.abs(branch_coefficients(at, level).c_y) / bq.scale_Cy, math.nan)
    return tuple(scalars)


def _boundary_scalars(draws, levels, scalar):
    """The boundary points of the draws, at eta = -1."""
    scalars = np.concatenate(_levels(draws, levels, _boundary_residuals, etas=(-1,)))
    checked, worst = np.count_nonzero(~np.isnan(scalars)), max([0.0, *scalars.tolist()])
    return (checked > 0 and worst < scalar,
            f"{checked} boundary points, worst normalized scalar {worst:.2e} (< {_bound_text(scalar)})")


def _reversal_residuals(grid: ParamGrid, level: LevelIndex):
    """The reversal-closure identity 16 R^2 g^2 n + (4 n g^2 - d_kg^2)(4 n g^2
    + d_Ww^2) = 0 of level n at the reversal point Gamma_R in Gamma, which with
    the antisymmetry theta_t(Gamma_R - eps) = -theta_t(Gamma_R + eps) makes the
    tilt's jump an exact reversal, at each point of the grid. Returns whether
    the point is applicable (it has Gamma_R and A < 0 there), Gamma_R (nan
    without a closed form), the identity's residual relative to its larger
    term, the probe step eps' and theta_t (the level's eta) at Gamma_R - 2eps',
    - eps', + eps' and + 2eps', eight arrays of the grid's shape, nan off the
    applicable points. eps' = min(eps, |Gamma_GR - Gamma_R| / 4) where level n
    keeps its GR point, else eps: no probe reads theta_t past GR's jump by pi."""
    n = level.n
    r = _solve(grid, "R", "Gamma", n)
    held = r.valid
    at, gamma_r, R = grid.take(held), r.value[held], r.block.R[held]
    c = at.composites()
    d_Ww, d_kg, g = c.d_Omega_omega, c.d_kappa_gamma, at.g
    term_root = 16.0 * R * R * g * g * n
    term_poly = (4.0 * n * g * g - d_kg * d_kg) * (4.0 * n * g * g + d_Ww * d_Ww)
    on_grid = np.full((6, *held.shape), math.nan)
    with batch_index(held):
        gr = _solve(at, "GR", "Gamma", n)
        step = np.where(gr.valid, np.minimum(REVERSAL_EPS, np.abs(gr.value - gamma_r) / 4), REVERSAL_EPS)
        scale = np.maximum(np.maximum(np.abs(term_root), np.abs(term_poly)), 1e-300)
        on_grid[:2, held] = np.abs(term_root + term_poly) / scale, step
        for row, k in enumerate((-2, -1, 1, 2), 2):
            coeffs = texture_coefficients(_replaced(at, "Gamma", gamma_r + k * step), level)
            on_grid[row][held] = tilting_angle(coeffs).theta_t
    return held, r.value, *on_grid


def _reversal_identity(draws, levels, identity, antisymmetry):
    """The draws at each level, plus the reference configuration at n = 1..5
    at the strict antisymmetry bound."""
    held, _, residual, step, *thetas = _levels(draws, levels, _reversal_residuals, etas=(-1,))
    step, (far_below, below, above, far_above) = step[held], (theta[held] for theta in thetas)
    anti = np.abs(below + above)
    # the antisymmetry residual grows linearly with the smooth tilt slope;
    # allow that first-order term on generic draws
    slope = np.maximum(np.abs(below - far_below), np.abs(above - far_above)) / step
    anti_ok = bool(np.all(anti < np.maximum(antisymmetry, 20.0 * step * slope)))
    worst_id, worst_anti = max([0.0, *residual[held].tolist()]), max([0.0, *anti.tolist()])
    base = ParamGrid.rows([reference_config(Gamma=0.0)])
    strict, _, ref_residual, _, _, ref_below, ref_above, _ = _levels(base, range(1, 6), _reversal_residuals, etas=(-1,))
    strict_ok = bool(np.all(strict & (ref_residual < identity) & (np.abs(ref_below + ref_above) < antisymmetry)))
    return (worst_id < identity and anti_ok and strict_ok,
            f"{np.count_nonzero(held) + np.count_nonzero(strict)} applicable points, identity residual "
            f"{worst_id:.2e} (< {_bound_text(identity)}), worst tilt antisymmetry {worst_anti:.2e} "
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

    def __call__(self, draws: ParamGrid, levels: Iterable[int]) -> CheckResult:
        return CheckResult(self.name, *self.judge(draws, levels, **self.bounds))


def _every_level(n_max):
    return range(1, n_max + 1)


# The one table of checks: run_suite runs each entry in this order, and the
# acceptance gate runs entries on its own draws and levels and reads their
# bounds. It holds nine entries: the benchmark's oracle of `nhjc verify`
# (bench/oracle.check_verify_text) counts nine, so an entry is added only
# with a change to the benchmark.
_CHECKS: dict[str, _Check] = {
    "eigen": _Check("eigen-solution residuals", {"residual": 1e-11}, _every_level, _eigen),
    "dual-route": _Check("dual-route texture equivalence", {"difference": 1e-11},
                         lambda n_max: (1, min(max(2, n_max // 2), n_max), n_max), _dual_route),
    "parity": _Check("parity symmetry", {"texture": 1e-12, "wavefunction": 1e-13}, lambda n_max: (1, n_max), _parity),
    "hermitian": _Check("hermitian limit", {"sigma_y": 1e-13, "im_energy": 1e-14}, _every_level,
                        _hermitian),
    "nodes": _Check("invariant nodes", {"position": 1e-10}, lambda n_max: (1, min(2, n_max), n_max), _nodes),
    "winding": _Check("winding laws", {"residual": 0.1}, _every_level, _winding, capped=True),
    "tilting": _Check("tilting identities", {"residual": 1e-12}, lambda n_max: (1, n_max), _tilting),
    "boundaries": _Check("boundary defining scalars", {"scalar": 1e-12},
                         lambda n_max: (max(1, n_max // 2),), _boundary_scalars),
    "reversal-identity": _Check("reversal-closure identity", {"identity": 1e-10, "antisymmetry": 1e-4},
                                lambda n_max: range(1, min(5, n_max) + 1), _reversal_identity),
}


def run_suite(draws: int = 200, n_max: int = 8, seed: int = DEFAULT_SEED,
              quick: bool = False) -> list[CheckResult]:
    """Run every invariant check; quick mode shrinks to 50 draws, n <= 6.

    1 <= draws <= sys.maxsize (at least 4 are drawn), 1 <= n_max <= N_MAX
    and seed >= 0, else ValidationError.
    """
    if not 1 <= draws <= sys.maxsize:
        raise ValidationError(f"draws must be >= 1 and <= {sys.maxsize}, got {draws}")
    check_level(n_max, low=1, name="n_max")
    if not seed >= 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if quick:
        draws, n_max = min(draws, 50), min(n_max, 6)
    grid = draw_sets(np.random.default_rng(seed), max(4, draws), n_max)
    # windings dominate the cost: their check takes only the first draws
    capped = grid.take(slice(0, max(4, draws // 4)))
    return [check(capped if check.capped else grid, check.levels(n_max)) for check in _CHECKS.values()]
