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
together make the tilting-angle jump an exact reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .boundaries import boundary_R
from .errors import (
    AntiWindingError,
    GridTooCoarseError,
    OnBoundaryError,
    UndefinedTiltError,
    ValidationError,
)
from .oscillator import hermite_roots
from .params import LevelIndex, ModelParams
from .spectrum import block_quantities
from .texture import (
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
    "winding_integral",
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


def _fold(step: float) -> float:
    return step - 2.0 * math.pi * round(step / (2.0 * math.pi))


def _unwrap_total(x_comp: np.ndarray, y_comp: np.ndarray) -> tuple[float, float]:
    """Total swept angle of (x_comp, y_comp) and the largest interior step.

    Both tails converge to the exact direction (0, -1), angle -pi/2; closing
    the walk onto that limit removes the truncation bias (the winding between
    the cutoff and infinity is below pi, so folding the closing increments is
    safe: at most the outermost sigma_x node lies beyond the grid).
    """
    amp = np.hypot(x_comp, y_comp)
    alive = np.flatnonzero(amp > _AMPLITUDE_FLOOR)
    if alive.size < 2:
        raise GridTooCoarseError("winding vector vanishes on the whole grid")
    sl = slice(alive[0], alive[-1] + 1)
    angles = np.arctan2(y_comp[sl], x_comp[sl])
    steps = np.diff(angles)
    steps -= 2.0 * math.pi * np.round(steps / (2.0 * math.pi))
    total = _fold(angles[0] + 0.5 * math.pi) + float(np.sum(steps)) + _fold(-0.5 * math.pi - angles[-1])
    worst = float(np.max(np.abs(steps))) if steps.size else 0.0
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
    total, worst = _unwrap_total(texture.component(alpha), texture.component(beta))
    rounds = 0
    while worst >= _MAX_STEP and refine is not None and rounds < _REFINE_ROUNDS:
        rounds += 1
        texture = refine(4 * (len(texture.grid) - 1) + 1)
        total, worst = _unwrap_total(texture.component(alpha), texture.component(beta))
    if worst >= _MAX_STEP:
        raise GridTooCoarseError(
            f"angle step {worst:.3f} rad >= pi/2 in plane {plane} "
            f"({len(texture.grid)} grid points)"
        )
    raw = total / (2.0 * math.pi)
    signed = round(raw)
    return WindingResult(plane=plane, signed=signed, method="integral",
                         residual=abs(raw - signed))


def _sign_sum(nodes_outer: NodeSet, other: NodeSet, ends_other: tuple[int, int]) -> int:
    """Quarter-sum over the sections of nodes_outer with the other component's
    signs at the section endpoints. Returns the sum in quarter units."""
    signs_at = [ends_other[0]]
    signs_at += [other.sign_at(float(x)) for x in nodes_outer.positions]
    signs_at.append(ends_other[1])
    section = nodes_outer.signs
    for i in range(len(section) - 1):
        if section[i] != -section[i + 1]:
            raise AntiWindingError(
                f"section signs of sigma_{nodes_outer.component} do not alternate; "
                "the sign-sum formula assumes no anti-winding nodes or returning knots"
            )
    return sum(
        (signs_at[i + 1] - signs_at[i]) * section[i]  # 1/eta == eta for +-1
        for i in range(len(section))
    )


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
    if ends_alpha is None:
        ends_alpha = asymptotic_signs(nodes_alpha.component)
    if ends_beta is None:
        ends_beta = asymptotic_signs(nodes_beta.component)
    quarters_a = -_sign_sum(nodes_beta, nodes_alpha, ends_alpha)
    quarters_b = _sign_sum(nodes_alpha, nodes_beta, ends_beta)
    if quarters_a % 4 or quarters_a != quarters_b:
        raise AntiWindingError(
            f"inconsistent node sums in plane {plane}: "
            f"{quarters_a}/4 (over sigma_{nodes_beta.component} nodes) vs "
            f"{quarters_b}/4 (over sigma_{nodes_alpha.component} nodes)"
        )
    return WindingResult(plane=plane, signed=quarters_a // 4, method="node-sum")


def winding_direction(coeffs: TextureCoefficients, plane: str) -> int:
    """Direction sign s_w of the winding in the plane: +1 clockwise,
    -1 counter-clockwise (s_w = sign of the plane's coefficient)."""
    alpha, _ = _plane_components(plane)
    value = coeffs.c_z if alpha == "z" else coeffs.c_y
    if value == 0.0:
        raise OnBoundaryError(
            f"C{alpha} = 0: winding direction in {plane} undefined on a reversal boundary"
        )
    return 1 if value > 0.0 else -1


# far enough out that exp(-x^2) factors underflow below the amplitude floor
_CLUSTER_REACH = 27.0


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
    n = level.n
    pieces = [standard_grid(n)]
    centers = [hermite_roots(n)]
    if n > 1:
        centers.append(hermite_roots(n - 1))
    if nodes_x is None:
        nodes_x = nodes(params, level, "x")
    centers.append(nodes_x.positions)
    shells = 1e-13 * 2.0 ** np.arange(0, 45)
    for c in np.concatenate(centers):
        if abs(c) > _CLUSTER_REACH:
            continue  # underflowed tail; the analytic end closure covers it
        local = shells * max(1.0, abs(c))
        pieces.append(c + local)
        pieces.append(c - local)
    return np.unique(np.concatenate(pieces))


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
    tex = texture_closed_form(params, level, grid)
    integ = winding_integral(
        tex, plane,
        refine=lambda m: texture_closed_form(
            params, level,
            np.unique(np.concatenate((grid, standard_grid(level.n, m)))),
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


def tilting_angle(coeffs: TextureCoefficients) -> TiltingAngle:
    """Tilt of the winding plane: theta_t = arctan(Cy/Cz), +-pi/2 at Cz = 0."""
    c_y, c_z = coeffs.c_y, coeffs.c_z
    if c_z == 0.0:
        if c_y == 0.0:
            raise UndefinedTiltError("Cy = Cz = 0: tilting angle undefined")
        return TiltingAngle(theta_t=math.copysign(0.5 * math.pi, c_y),
                            ratio=math.copysign(math.inf, c_y))
    ratio = c_y / c_z
    return TiltingAngle(theta_t=math.atan(ratio), ratio=ratio)


def _theta_at_gamma(params: ModelParams, n: int, eta: int, Gamma: float) -> float:
    coeffs = texture_coefficients(params.with_value("Gamma", Gamma), LevelIndex(n, eta))
    return tilting_angle(coeffs).theta_t


def verify_reversal_identity(
    params: ModelParams,
    n: int,
    eta: int = -1,
    eps: float = 1e-6,
) -> ReversalIdentityReport:
    """Check the reversal-closure identity and tilt antisymmetry at Gamma_R.

    Not applicable (report only, no error) when the level has no reversal
    point in Gamma: zero denominator or A >= 0 at the candidate.
    """
    c = params.composites()
    d_Ww, d_kg, g = c.d_Omega_omega, c.d_kappa_gamma, params.g
    blank = ReversalIdentityReport(
        applicable=False, reason="", n=n, eta=eta, gamma_reversal=math.nan,
        identity_residual=math.nan, antisymmetry_residual=math.nan,
        theta_below=math.nan, theta_above=math.nan,
    )
    if g == 0.0:
        return replace(blank, reason="no reversal point in Gamma: g = 0")
    point = boundary_R(params, n, "Gamma")
    if not point.valid:
        return replace(blank, reason=f"A >= 0 at the candidate Gamma_R ({point.validity_detail})",
                       gamma_reversal=point.value)
    bq = block_quantities(params.with_value("Gamma", point.value), n)
    term_root = 16.0 * bq.R * bq.R * g * g * n
    term_poly = (4.0 * n * g * g - d_kg * d_kg) * (4.0 * n * g * g + d_Ww * d_Ww)
    scale = max(abs(term_root), abs(term_poly), 1e-300)
    theta_below = _theta_at_gamma(params, n, eta, point.value - eps)
    theta_above = _theta_at_gamma(params, n, eta, point.value + eps)
    return ReversalIdentityReport(
        applicable=True,
        reason="reversal point exists (A < 0)",
        n=n,
        eta=eta,
        gamma_reversal=point.value,
        identity_residual=abs(term_root + term_poly) / scale,
        antisymmetry_residual=abs(theta_below + theta_above),
        theta_below=theta_below,
        theta_above=theta_above,
    )
