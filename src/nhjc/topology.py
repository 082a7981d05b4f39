"""Spin-winding topology: winding numbers, directions, and plane tilting.

The winding number of the planar vector (<sigma_a(x)>, <sigma_b(x)>) over the
real line is computed two independent ways:

 * winding_integral: accumulated angle by phase unwrapping over a sampled
   texture (each step folded into (-pi, pi)); equivalent to the defining
   integral because the eigenstate windings have no returning knots. The raw
   total/2pi is rounded to an integer and the distance is reported as the
   residual.

 * winding_node_sum: the algebraic sign-sum over the nodes of either
   component; exact integer arithmetic, no sampling. Both sign-sum forms
   (summing over the nodes of a with signs of b, and vice versa) are
   evaluated and must agree. End signs at infinity are analytic limits:
   sgn<sigma_{z,y}> -> 0 while |sgn<sigma_x>| -> 1 with sign -1 (the
   -H_n^2 term dominates in both tails).

Directions: the winding is counter-clockwise iff the plane's coefficient
(Cz for zx, Cy for yx) is negative, so the signed winding is

    n_w = -sign(C) * n.

The tilting of the winding plane out of zx is theta_t = arctan(Cy/Cz), the
same at every position x.

verify_reversal_identity numerically checks, at the level's reversal point in
Gamma, the closure identity

    16 R^2 g^2 n + (4 n g^2 - d_kg^2)(4 n g^2 + d_Ww^2) = 0

and the antisymmetry theta_t(Gamma_R - eps) = -theta_t(Gamma_R + eps) that
together make the tilting-angle jump an exact reversal. Like the boundary
closed forms it stands on (boundaries._solve), it takes a ParamGrid in place
of ModelParams and checks every point at once, bit for bit what a call per
point gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .boundaries import _solve, boundary_R
from .errors import (
    AntiWindingError,
    GridTooCoarseError,
    OnBoundaryError,
    UndefinedTiltError,
    ValidationError,
)
from .oscillator import hermite_roots
from .params import LevelIndex, ModelParams, ParamGrid, _replaced, elementwise, maximum, raise_where, where
from .spectrum import block_quantities
from .texture import (
    STANDARD_POINTS,
    NodeSet,
    SpinTexture,
    TextureCoefficients,
    nodes,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
)

__all__ = [
    "PLANES",
    "WindingResult",
    "TiltingAngle",
    "ReversalIdentityReport",
    "asymptotic_signs",
    "winding_grid",
    "winding_grids",
    "winding_integral",
    "integral_windings",
    "winding_node_sum",
    "winding_direction",
    "winding_report",
    "tilting_angle",
    "verify_reversal_identity",
]

# plane -> (alpha, beta) component names; the winding vector is
# (<sigma_alpha>, <sigma_beta>) with the angle measured from alpha toward beta
PLANES = {"zx": ("z", "x"), "yx": ("y", "x")}

_AMPLITUDE_FLOOR = 1e-280
_MAX_STEP = 0.5 * math.pi


@dataclass(frozen=True)
class WindingResult:
    plane: str
    signed: int
    method: str  # "integral" | "node-sum"
    residual: float | None = None  # integral only: |raw - round(raw)|
    degenerate: bool = False  # n = 0: no transverse components, winding 0

    @property
    def magnitude(self) -> int:
        return abs(self.signed)

    @property
    def sign(self) -> int:
        return (self.signed > 0) - (self.signed < 0)


@dataclass(frozen=True)
class TiltingAngle:
    theta_t: float  # in [-pi/2, pi/2]
    ratio: float    # Cy/Cz, +-inf when Cz = 0


@dataclass(frozen=True)
class ReversalIdentityReport:
    applicable: bool
    reason: str
    n: int
    eta: int
    gamma_reversal: float
    identity_residual: float         # relative to the largest term
    antisymmetry_residual: float     # |theta_t(G-eps) + theta_t(G+eps)|
    theta_below: float
    theta_above: float


def asymptotic_signs(component: str) -> tuple[int, int]:
    """sgn<sigma_component> at (-inf, +inf) per the leading Hermite behavior."""
    if component in ("z", "y"):
        return (0, 0)
    if component == "x":
        return (-1, -1)
    raise ValidationError(f"unknown spin component {component!r}")


def _plane_components(plane: str) -> tuple[str, str]:
    try:
        return PLANES[plane]
    except KeyError:
        raise ValidationError(f"unknown winding plane {plane!r}; use one of {sorted(PLANES)}") from None


def _fold(step):
    """step folded into [-pi, pi] (elementwise; halves round to even, as round() does)."""
    return step - 2.0 * math.pi * np.round(step / (2.0 * math.pi))


def _alive(x_comp: np.ndarray, y_comp: np.ndarray) -> np.ndarray:
    """hypot(x_comp, y_comp) > _AMPLITUDE_FLOOR, elementwise.

    hypot lies between max(|x|, |y|) and sqrt(2) times it, so it is evaluated
    only where that does not settle the test: a largest magnitude in
    (0.7 floor, floor], or nan (hypot(inf, nan) is inf). Squares would
    underflow at this floor.
    """
    big = np.maximum(np.abs(x_comp), np.abs(y_comp))
    alive = big > _AMPLITUDE_FLOOR
    unsure = ~(alive | (big <= 0.7 * _AMPLITUDE_FLOOR))
    alive[unsure] = np.hypot(x_comp[unsure], y_comp[unsure]) > _AMPLITUDE_FLOOR
    return alive


def _unwrap_totals(x_comp: np.ndarray, y_comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total swept angle of (x_comp, y_comp) along each row and the largest
    interior step; nan (padding past the end of a row's grid) counts as a
    vanished vector.

    Both tails converge to the exact direction (0, -1), angle -pi/2; closing
    the walk onto that limit removes the truncation bias (the winding between
    the cutoff and infinity is below pi, so folding the closing increments is
    safe: at most the outermost sigma_x node lies beyond the grid).
    """
    alive = _alive(x_comp, y_comp)
    raise_where(np.count_nonzero(alive, axis=-1) < 2, GridTooCoarseError,
                "winding vector vanishes on the whole grid")
    first = np.argmax(alive, axis=-1)
    last = alive.shape[-1] - 1 - np.argmax(alive[:, ::-1], axis=-1)
    angles = np.arctan2(y_comp, x_comp)
    steps = np.diff(angles)
    steps -= 2.0 * math.pi * np.round(steps / (2.0 * math.pi))
    inside = (first[:, None] <= np.arange(steps.shape[-1])) & (np.arange(steps.shape[-1]) < last[:, None])
    worst = np.max(np.abs(steps), axis=-1, where=inside, initial=0.0)
    # each row's own slice, so the pairwise sum adds what a 1-D call adds
    sums = np.array([np.sum(row[lo:hi]) for row, lo, hi in zip(steps, first.tolist(), last.tolist())])
    rows = np.arange(len(first))
    total = _fold(angles[rows, first] + 0.5 * math.pi) + sums + _fold(-0.5 * math.pi - angles[rows, last])
    return total, worst


# unresolved-step escalation: 4x density per round before giving up
_REFINE_ROUNDS = 3


def winding_integral(
    texture: SpinTexture,
    plane: str,
    refine: Callable[[int], SpinTexture] | None = None,
) -> WindingResult:
    """Signed winding number by phase unwrapping of the sampled texture.

    A single interior angle step of magnitude >= pi/2 marks the grid too
    coarse; given a refine callback the texture is re-sampled at 4x density
    (up to three rounds, enough to resolve windings squashed down to the
    1e-3 boundary margin) before giving up.
    """
    alpha, beta = _plane_components(plane)
    if texture.coeffs is None:  # n = 0 state: no transverse components
        return WindingResult(plane=plane, signed=0, method="integral",
                             residual=0.0, degenerate=True)
    total, worst = _unwrap_totals(texture.component(alpha)[None], texture.component(beta)[None])
    rounds = 0
    while worst[0] >= _MAX_STEP and refine is not None and rounds < _REFINE_ROUNDS:
        rounds += 1
        texture = refine(4 * (len(texture.grid) - 1) + 1)
        total, worst = _unwrap_totals(texture.component(alpha)[None], texture.component(beta)[None])
    signed, residual = _rounded(total, worst, plane, [len(texture.grid)])
    return WindingResult(plane=plane, signed=int(signed[0]), method="integral",
                         residual=float(residual[0]))


def integral_windings(texture: SpinTexture, plane: str,
                      counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """winding_integral (no refinement) of a batch of cases: the signed
    windings and residuals of the rows of a texture, row i sampled on the
    first counts[i] points of its grid row. A grid too coarse raises
    GridTooCoarseError with the index of the first such row."""
    alpha, beta = _plane_components(plane)
    return _rounded(*_unwrap_totals(texture.component(alpha), texture.component(beta)), plane, counts)


def _rounded(total, worst, plane, counts) -> tuple[np.ndarray, np.ndarray]:
    """Nearest integers to total / 2 pi and the distances to them."""
    coarse = worst >= _MAX_STEP
    if coarse.any():
        i = int(np.argmax(coarse))
        raise GridTooCoarseError(
            f"angle step {worst[i]:.3f} rad >= pi/2 in plane {plane} ({counts[i]} grid points)",
            index=i,
        )
    raw = total / (2.0 * math.pi)
    signed = np.rint(raw)
    return signed.astype(int), np.abs(raw - signed)


def _sign_sum(outer: str, outer_signs: np.ndarray, other_at_nodes: np.ndarray,
              ends_other: tuple[int, int]) -> np.ndarray:
    """Quarter-sums over the sections of the outer component, given the
    other component's signs at the outer nodes (one row per point; a single
    row is shared by all)."""
    bad = np.flatnonzero((outer_signs[:, :-1] != -outer_signs[:, 1:]).any(axis=-1))
    if bad.size:
        raise AntiWindingError(
            f"section signs of sigma_{outer} do not alternate; "
            "the sign-sum formula assumes no anti-winding nodes or returning knots",
            index=int(bad[0]),
        )
    rows = len(other_at_nodes)
    signs_at = np.concatenate((np.full((rows, 1), ends_other[0]), other_at_nodes,
                               np.full((rows, 1), ends_other[1])), axis=-1)
    return ((signs_at[:, 1:] - signs_at[:, :-1]) * outer_signs).sum(axis=-1)  # 1/eta == eta for +-1


def winding_node_sum(
    nodes_alpha: NodeSet,
    nodes_beta: NodeSet,
    ends_alpha: tuple[int, int] | None = None,
    ends_beta: tuple[int, int] | None = None,
) -> WindingResult:
    """Signed winding number from node positions and section signs alone.

    Evaluates both sign-sum forms (over the beta nodes with alpha signs, and
    over the alpha nodes with beta signs) and requires exact agreement.
    """
    plane = nodes_alpha.component + nodes_beta.component
    _plane_components(plane)
    signed = node_sum_windings(plane, (nodes_alpha.positions, nodes_alpha.signs),
                               (nodes_beta.positions, nodes_beta.signs), ends_alpha, ends_beta)
    return WindingResult(plane=plane, signed=int(signed[0]), method="node-sum")


def node_sum_windings(plane: str, alpha, beta, ends_alpha=None, ends_beta=None) -> np.ndarray:
    """Signed node-sum windings of a batch of points in the plane. alpha and
    beta are the (positions, signs) of the two components' nodes: alpha's
    positions are shared by the batch, the others are shared (1-D) or one row
    per point (2-D). A failed check raises AntiWindingError with the index of
    the first failing point."""
    a, b = plane[0], plane[1]
    ends_alpha = asymptotic_signs(a) if ends_alpha is None else ends_alpha
    ends_beta = asymptotic_signs(b) if ends_beta is None else ends_beta
    a_pos = np.asarray(alpha[0])
    b_pos, a_signs, b_signs = (np.atleast_2d(v) for v in (beta[0], alpha[1], beta[1]))
    batch = np.broadcast_shapes((len(b_pos),), (len(a_signs),), (len(b_signs),))[0]
    rows = np.arange(batch)[:, None]
    # a component's sign at a node of the other is that of its section
    # number bisect_left(positions, node); a single row of signs serves all
    a_at_b = a_signs[rows if len(a_signs) != 1 else 0, np.searchsorted(a_pos, b_pos)]
    # beta node j lies below alpha node k iff at most k alpha nodes lie at or
    # below it; offset by row, these counts form one sorted array
    m, k = len(a_pos) + 1, b_pos.shape[-1]
    b_rows = rows[:len(b_pos)]
    at_or_below = (np.searchsorted(a_pos, b_pos, side="right") + m * b_rows).ravel()
    b_below_a = np.searchsorted(at_or_below, m * b_rows + np.arange(m - 1), side="right") - k * b_rows
    b_at_a = b_signs[rows if len(b_signs) != 1 else 0, b_below_a]
    quarters_a = -_sign_sum(b, b_signs, a_at_b, ends_alpha)
    quarters_b = _sign_sum(a, a_signs, b_at_a, ends_beta)
    bad = np.flatnonzero((quarters_a % 4 != 0) | (quarters_a != quarters_b))
    if bad.size:
        i = bad[0]
        raise AntiWindingError(
            f"inconsistent node sums in plane {plane}: "
            f"{quarters_a[i]}/4 (over sigma_{b} nodes) vs "
            f"{quarters_b[i]}/4 (over sigma_{a} nodes)",
            index=int(i),
        )
    return quarters_a // 4


def winding_direction(coeffs: TextureCoefficients, plane: str) -> int:
    """Direction sign s_w of the winding in the plane: +1 clockwise,
    -1 counter-clockwise (s_w = sign of the plane's coefficient; arrays of
    coefficients give an array)."""
    alpha, _ = _plane_components(plane)
    value = coeffs.c_z if alpha == "z" else coeffs.c_y
    raise_where(value == 0.0, OnBoundaryError,
                f"C{alpha} = 0: winding direction in {plane} undefined on a reversal boundary")
    return where(value > 0.0, 1, -1)


# far enough out that exp(-x^2) factors underflow below the amplitude floor
_CLUSTER_REACH = 27.0
_SHELLS = 1e-13 * 2.0 ** np.arange(0, 45)


def winding_grid(params: ModelParams, level: LevelIndex, nodes_x: NodeSet | None = None) -> np.ndarray:
    """Integration grid for phase unwrapping: the standard grid plus geometric
    shells around every node of both families.

    The winding loop passes close to the origin wherever a sigma_x node sits
    near a Hermite root (which happens whenever |C_up|/|C_down| is far from
    1); near such a passage the angle varies like arctan((x-x*)/w) with an
    arbitrarily small w. Points at geometric offsets x* +- w0 2^k bound the
    ladder steps by arctan(sqrt(2)) - arctan(1/sqrt(2)) ~ 0.34 rad and the
    center crossing by 2 arctan(w0/w), comfortably under pi/2 for any squeeze
    the boundary margins admit (w0 = 1e-13).
    """
    if nodes_x is None:
        nodes_x = nodes(params, level, "x")
    grids, counts = winding_grids(level.n, nodes_x.positions[None])
    return grids[0, :counts[0]]


def winding_grids(n: int, x_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The winding_grid of each row of sigma_x nodes (shape (cases, 2n)) at
    level n: one grid per row, left-aligned and padded with nan, and the
    number of points in each."""
    roots = np.concatenate((hermite_roots(n), hermite_roots(n - 1) if n > 1 else np.empty(0)))
    centers = np.concatenate((np.broadcast_to(roots, (len(x_nodes), roots.size)), x_nodes), axis=-1)
    local = _SHELLS * np.maximum(1.0, np.abs(centers))[..., None]
    shells = np.concatenate((centers[..., None] + local, centers[..., None] - local), axis=-1)
    # an underflowed tail needs none: the analytic end closure covers it
    shells[np.abs(centers) > _CLUSTER_REACH] = np.nan
    standard = np.broadcast_to(standard_grid(n), (len(x_nodes), STANDARD_POINTS))
    return _distinct_rows(np.concatenate((standard, shells.reshape(len(x_nodes), -1)), axis=-1))


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of each row in increasing order (nan dropped),
    left-aligned and padded with nan, and their counts: np.unique row by row,
    without the numpy.ma import that np.unique costs."""
    rows = np.sort(rows, axis=-1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.nan  # repeats; the sort moves them last
    rows.sort(axis=-1)
    counts = np.count_nonzero(~np.isnan(rows), axis=-1)
    return rows[:, :counts.max()], counts


def winding_report(params: ModelParams, level: LevelIndex, plane: str) -> dict:
    """Both winding routes plus the coefficient-sign prediction for one plane."""
    _plane_components(plane)
    if level.n == 0:
        return {
            "plane": plane,
            "degenerate": True,
            "node_sum": 0,
            "integral": 0,
            "integral_residual": 0.0,
            "agreement": True,
        }
    alpha, beta = PLANES[plane]
    bq = block_quantities(params, level.n)
    nodes_alpha = nodes(params, level, alpha, bq)
    nodes_x = nodes(params, level, beta, bq)
    ns = winding_node_sum(nodes_alpha, nodes_x)
    grid = winding_grid(params, level, nodes_x)
    tex = texture_closed_form(params, level, grid, bq)
    integ = winding_integral(
        tex, plane,
        refine=lambda m: texture_closed_form(
            params, level,
            _distinct_rows(np.concatenate((grid, standard_grid(level.n, m)))[None])[0][0], bq,
        ),
    )
    coeffs = tex.coeffs
    try:
        predicted = -winding_direction(coeffs, plane) * level.n
    except OnBoundaryError:
        predicted = None
    return {
        "plane": plane,
        "degenerate": False,
        "node_sum": ns.signed,
        "integral": integ.signed,
        "integral_residual": integ.residual,
        "direction_rule": predicted,
        "agreement": ns.signed == integ.signed and (predicted in (None, ns.signed)),
    }


_tilt_ratio = elementwise(lambda c_y, c_z: c_y / c_z if c_z != 0.0 else math.copysign(math.inf, c_y))
_atan = elementwise(math.atan)


def tilting_angle(coeffs: TextureCoefficients) -> TiltingAngle:
    """Tilt of the winding plane: theta_t = arctan(Cy/Cz), +-pi/2 at Cz = 0
    (arrays of coefficients give arrays)."""
    raise_where((coeffs.c_z == 0.0) & (coeffs.c_y == 0.0), UndefinedTiltError,
                "Cy = Cz = 0: tilting angle undefined")
    return tilt_of(coeffs.c_y, coeffs.c_z)


def tilt_of(c_y, c_z) -> TiltingAngle:
    """theta_t and Cy/Cz with no check (arrays over a grid; Cy = Cz = 0 gives
    pi/2 there). arctan(+-inf) is exactly +-pi/2 in floats."""
    ratio = _tilt_ratio(c_y, c_z)
    return TiltingAngle(theta_t=_atan(ratio), ratio=ratio)


def _theta_at_gamma(params: ModelParams | ParamGrid, n: int, eta: int, Gamma):
    """theta_t of (n, eta) with Gamma set to the given value(s)."""
    coeffs = texture_coefficients(_replaced(params, "Gamma", Gamma), LevelIndex(n, eta))
    return tilting_angle(coeffs).theta_t


def _on(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values where mask holds, nan elsewhere."""
    out = np.full(mask.shape, math.nan)
    out[mask] = values
    return out


def verify_reversal_identity(
    params: ModelParams | ParamGrid,
    n: int,
    eta: int = -1,
    eps: float = 1e-6,
) -> ReversalIdentityReport:
    """Check the reversal-closure identity and tilt antisymmetry at Gamma_R.

    Not applicable (report only, no error) when the level has no reversal
    point in Gamma: zero denominator or A >= 0 at the candidate. Over a
    ParamGrid every field but n, eta and reason (empty) is an array of the
    grid's shape holding what a call per point gives; the tilts are
    evaluated at the applicable points only.
    """
    scalar = isinstance(params, ModelParams)
    blank = ReversalIdentityReport(
        applicable=False, reason="", n=n, eta=eta, gamma_reversal=math.nan,
        identity_residual=math.nan, antisymmetry_residual=math.nan,
        theta_below=math.nan, theta_above=math.nan,
    )
    if scalar:
        if params.g == 0.0:
            return replace(blank, reason="no reversal point in Gamma: g = 0")
        point = boundary_R(params, n, "Gamma")
        gamma_reversal, applicable = point.value, point.valid
        if not applicable:
            return replace(blank, reason=f"A >= 0 at the candidate Gamma_R ({point.validity_detail})",
                           gamma_reversal=gamma_reversal)
        at, gamma_at = params, gamma_reversal
    else:
        gamma_reversal, applicable, _, _ = _solve(params, "R", "Gamma", n)
        at, gamma_at = params.take(applicable), gamma_reversal[applicable]
    c = at.composites()
    d_Ww, d_kg, g = c.d_Omega_omega, c.d_kappa_gamma, at.g
    bq = block_quantities(_replaced(at, "Gamma", gamma_at), n)
    term_root = 16.0 * bq.R * bq.R * g * g * n
    term_poly = (4.0 * n * g * g - d_kg * d_kg) * (4.0 * n * g * g + d_Ww * d_Ww)
    scale = maximum(abs(term_root), abs(term_poly), 1e-300)
    theta_below = _theta_at_gamma(at, n, eta, gamma_at - eps)
    theta_above = _theta_at_gamma(at, n, eta, gamma_at + eps)
    fields = dict(identity_residual=abs(term_root + term_poly) / scale,
                  antisymmetry_residual=abs(theta_below + theta_above),
                  theta_below=theta_below, theta_above=theta_above)
    if not scalar:
        fields = {name: _on(applicable, values) for name, values in fields.items()}
    return ReversalIdentityReport(
        applicable=applicable,
        reason="reversal point exists (A < 0)" if scalar else "",
        n=n,
        eta=eta,
        gamma_reversal=gamma_reversal,
        **fields,
    )
