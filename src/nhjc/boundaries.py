"""Closed forms for the three special-point families of the dissipative JCM.

R  (reversal):        B = 0 under A < 0; level-dependent, gap-closing.
GR (gapped reversal): Cz = 0; the same point for every level that still has
                      the transition; no gap closing.
SI (super-invariant): Cy = 0; the same point for every level, no tilting and
                      no gap closing.

Each family is solvable in closed form for any one of kappa, Gamma, gamma, g
(never by root-finding). With d_Ww = Omega - omega and d_kg = kappa - gamma:

    R:   kappa = gamma + 4 n g Gamma / d_Ww      Gamma = d_kg d_Ww / (4 n g)
         gamma = kappa - 4 n g Gamma / d_Ww      g     = d_kg d_Ww / (4 n Gamma)
    GR:  kappa = gamma + g d_Ww / Gamma          Gamma = g d_Ww / d_kg
         gamma = kappa - g d_Ww / Gamma          g     = Gamma d_kg / d_Ww
    SI:  kappa = gamma - Gamma d_Ww / g          Gamma = -g d_kg / d_Ww
         gamma = kappa + Gamma d_Ww / g          g     = -Gamma d_Ww / d_kg

Validity. A family-R point is a genuine transition only when A < 0 there. At
any GR point the relation Gamma*d_kg = g*d_Ww makes e- = i t g~ with
t = d_kg/(2g) = d_Ww/(2Gamma), so the branch root is proportional to g~ and
Cz vanishes (for both branches and every level) iff t^2 > n, i.e.
d_kg^2 > 4 n g^2 at the point. Levels with n >= t^2 have met the reversal
transition and lost the GR point ("preempted"); n = t^2 is the exceptional
meeting line of the two families. SI points exist unconditionally: there
e- = t' g~ with t' = d_Ww/(2g) real, so Cy = 0 identically in n.

The closed forms are written once, in operator form like block_quantities:
given a ParamGrid instead of ModelParams, _solve evaluates every point at
once and returns arrays, bit for bit what a call per point returns. A zero
denominator is a mask there (value nan, not valid); for one ModelParams it
raises NoBoundaryError. The validity of R and GR is read off the record with
the solved parameter replaced by its value. boundary_R/GR/SI format one
point's result; the sweep overlays and verify solve whole grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NoBoundaryError, ValidationError
from .params import ModelParams, ParamGrid, _replaced, elementwise, quiet_overflow, raise_where, where
from .spectrum import BlockQuantities, block_quantities

__all__ = ["BoundaryPoint", "boundary_R", "boundary_GR", "boundary_SI", "all_boundaries", "SOLVABLE"]

SOLVABLE = ("kappa", "Gamma", "gamma", "g")

FAMILIES = ("R", "GR", "SI")

# (family, solved-for) -> (the denominator whose zero leaves no closed form,
# the value given the parameters p, the level n, d_Ww, d_kg and the nonzero
# denominator q); the table of the module docstring
_FORMS = {
    ("R", "kappa"): ("Omega - omega", lambda p, n, d_Ww, d_kg, q: p.gamma + 4.0 * n * p.g * p.Gamma / q),
    ("R", "gamma"): ("Omega - omega", lambda p, n, d_Ww, d_kg, q: p.kappa - 4.0 * n * p.g * p.Gamma / q),
    ("R", "Gamma"): ("g", lambda p, n, d_Ww, d_kg, q: d_kg * d_Ww / (4.0 * n * q)),
    ("R", "g"): ("Gamma", lambda p, n, d_Ww, d_kg, q: d_kg * d_Ww / (4.0 * n * q)),
    ("GR", "kappa"): ("Gamma", lambda p, n, d_Ww, d_kg, q: p.gamma + p.g * d_Ww / q),
    ("GR", "gamma"): ("Gamma", lambda p, n, d_Ww, d_kg, q: p.kappa - p.g * d_Ww / q),
    ("GR", "Gamma"): ("kappa - gamma", lambda p, n, d_Ww, d_kg, q: p.g * d_Ww / q),
    ("GR", "g"): ("Omega - omega", lambda p, n, d_Ww, d_kg, q: p.Gamma * d_kg / q),
    ("SI", "kappa"): ("g", lambda p, n, d_Ww, d_kg, q: p.gamma - p.Gamma * d_Ww / q),
    ("SI", "gamma"): ("g", lambda p, n, d_Ww, d_kg, q: p.kappa + p.Gamma * d_Ww / q),
    ("SI", "Gamma"): ("Omega - omega", lambda p, n, d_Ww, d_kg, q: -p.g * d_kg / q),
    ("SI", "g"): ("kappa - gamma", lambda p, n, d_Ww, d_kg, q: -p.Gamma * d_Ww / q),
}


def _squared(x: float) -> float:
    """x**2 as Python rounds it (numpy's x**2 is x*x, which differs in the
    last bit on some inputs), inf where it leaves float range."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


_square = elementwise(_squared)


@dataclass(frozen=True)
class BoundaryPoint:
    family: str
    solved_for: str
    value: float
    valid: bool
    validity_detail: str
    level_dependent: bool


class _Solution(NamedTuple):
    """One family's point over a record or a grid (arrays over a grid)."""

    value: float  # nan where the denominator is zero
    valid: bool
    block: BlockQuantities | None  # R: block n at the point, whose A < 0 makes it valid
    n_max: float | None  # GR: the levels n < n_max keep the transition


def _check_solvable(solved_for: str) -> None:
    if solved_for not in SOLVABLE:
        raise ValidationError(
            f"no closed form for {solved_for!r}; solvable parameters: {SOLVABLE}"
        )


@quiet_overflow
def _solve(params: ModelParams | ParamGrid, family: str, solved_for: str, n: int | None) -> _Solution:
    """The family's point solved for one parameter, the others from params.

    A zero denominator raises NoBoundaryError for a ModelParams and gives nan,
    not valid, over a grid. A non-finite R or GR value raises the
    ValidationError of a ModelParams holding it. n is the level of R, the
    level whose GR transition is asked about (None: level 1) and unused by SI.
    """
    label, form = _FORMS[family, solved_for]
    c = params.composites()
    d_Ww, d_kg = c.d_Omega_omega, c.d_kappa_gamma
    denominator = {"Omega - omega": d_Ww, "kappa - gamma": d_kg, "g": params.g, "Gamma": params.Gamma}[label]
    zero = denominator == 0.0
    if isinstance(params, ModelParams):
        raise_where(zero, NoBoundaryError, f"family {family} has no boundary in {solved_for}: {label} is zero")
    value = where(zero, math.nan, form(params, n, d_Ww, d_kg, where(zero, 1.0, denominator)))
    if family == "SI":
        return _Solution(value, where(zero, False, True), None, None)
    # a point without a value keeps its own parameter, and is not valid
    at = _replaced(params, solved_for, where(zero, getattr(params, solved_for), value))
    if family == "R":
        block = block_quantities(at, n)
        return _Solution(value, where(zero, False, block.A < 0.0), block, None)
    d_kg_at, g_at = at.kappa - at.gamma, at.g
    uncoupled = g_at == 0.0
    n_max = where(uncoupled, where(d_kg_at != 0.0, math.inf, 0.0),
                  _square(d_kg_at / (2.0 * where(uncoupled, 1.0, g_at))))
    keeps = n_max > 1.0 if n is None else n < n_max  # n = None: the first excited level
    return _Solution(value, where(zero, False, keeps), None, n_max)


def boundary_R(params: ModelParams, n: int, solved_for: str) -> BoundaryPoint:
    """Level-n reversal point solved for one parameter (others from params).

    valid requires A < 0 at the point. For solved_for='Gamma' the detail also
    reports the explicit existence conditions Gamma_R > |Omega-omega|/(2 sqrt(n))
    and (kappa-gamma)(Omega-omega) > 0 that apply when Gamma_A^2 > 0.
    """
    _check_solvable(solved_for)
    if n < 1:
        raise ValidationError(f"family R needs a level n >= 1, got {n}")
    value, valid, block, _ = _solve(params, "R", solved_for, n)
    A = block.A
    detail = f"A = {A:.6g} at the point ({'A < 0 holds' if valid else 'requires A < 0'})"
    if solved_for == "Gamma":
        c = params.composites()
        d_Ww, d_kg, g = c.d_Omega_omega, c.d_kappa_gamma, params.g
        gamma_a_sq = g * g + (d_Ww * d_Ww - d_kg * d_kg) / (4.0 * n)
        if gamma_a_sq > 0.0:
            g_min = abs(d_Ww) / (2.0 * math.sqrt(n))
            detail += (
                f"; Gamma_A^2 = {gamma_a_sq:.6g} > 0 so existence needs "
                f"Gamma_R > {g_min:.6g} and (kappa-gamma)(Omega-omega) > 0 "
                f"[{'met' if valid and value > 0 else 'not met'}]"
            )
        else:
            detail += f"; Gamma_A^2 = {gamma_a_sq:.6g} <= 0 (transition exists for any Gamma_R)"
    if value < 0.0:
        detail += "; note: boundary value is a negative rate"
    return BoundaryPoint(family="R", solved_for=solved_for, value=value, valid=valid,
                         validity_detail=detail, level_dependent=True)


def boundary_GR(params: ModelParams, solved_for: str, n: int | None = None) -> BoundaryPoint:
    """Gapped-reversal point; the value never depends on n.

    When n is given, validity reports whether level n still has the
    transition (d_kg^2 > 4 n g^2 at the point) or has been preempted by the
    level's reversal transition.
    """
    _check_solvable(solved_for)
    value, valid, _, n_max = _solve(params, "GR", solved_for, n)
    if n is None:
        detail = f"transition exists for levels n < {n_max:.6g}"
    else:
        if n < 1:
            raise ValidationError(f"level n must be >= 1, got {n}")
        detail = (
            f"transition exists for levels n < {n_max:.6g}; "
            + (f"level n={n} keeps it" if valid
               else f"level n={n} is preempted (met the reversal transition)")
        )
    return BoundaryPoint(family="GR", solved_for=solved_for, value=value, valid=valid,
                         validity_detail=detail, level_dependent=False)


def boundary_SI(params: ModelParams, solved_for: str) -> BoundaryPoint:
    """Super-invariant point; identical for every level, no extra conditions."""
    _check_solvable(solved_for)
    value, valid, _, _ = _solve(params, "SI", solved_for, None)
    return BoundaryPoint(family="SI", solved_for=solved_for, value=value, valid=valid,
                         validity_detail="no tilting for every level at this point", level_dependent=False)


def all_boundaries(params: ModelParams, n: int, solved_for: str) -> list[BoundaryPoint]:
    """The three family points in the same variable (R first)."""
    out = []
    for family in FAMILIES:
        try:
            if family == "R":
                out.append(boundary_R(params, n, solved_for))
            elif family == "GR":
                out.append(boundary_GR(params, solved_for, n=n))
            else:
                out.append(boundary_SI(params, solved_for))
        except NoBoundaryError as exc:
            out.append(BoundaryPoint(family=family, solved_for=solved_for, value=math.nan, valid=False,
                                     validity_detail=str(exc), level_dependent=family == "R"))
    return out
