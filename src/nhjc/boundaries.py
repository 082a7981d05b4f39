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
the solved parameter replaced by its value. boundary formats one point's
result; the sweep overlays and verify solve whole grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NoBoundaryError, ValidationError
from .params import ModelParams, ParamGrid, _replaced, quiet_overflow, raise_where, where
from .spectrum import BlockQuantities, block_quantities

__all__ = ["BoundaryPoint", "boundary", "all_boundaries", "FAMILIES", "SOLVABLE"]

FAMILIES = ("R", "GR", "SI")
SOLVABLE = ("kappa", "Gamma", "gamma", "g")

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


@quiet_overflow
def _solve(params: ModelParams | ParamGrid, family: str, solved_for: str, n: int) -> _Solution:
    """The family's point solved for one parameter, the others from params.

    A zero denominator raises NoBoundaryError for a ModelParams and gives nan,
    not valid, over a grid. A non-finite R or GR value raises the
    ValidationError of a ModelParams holding it. n is the level of R, the
    level whose GR transition is asked about and unused by SI.
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
    t = d_kg_at / (2.0 * where(uncoupled, 1.0, g_at))
    n_max = where(uncoupled, where(d_kg_at != 0.0, math.inf, 0.0), t * t)
    return _Solution(value, where(zero, False, n < n_max), None, n_max)


def boundary(params: ModelParams, family: str, n: int, solved_for: str) -> BoundaryPoint:
    """The family's point for level n >= 1, solved for one parameter (the
    others from params). R is valid where A < 0 at the point; solved for
    Gamma, its detail also reports the existence conditions Gamma_R >
    |Omega-omega|/(2 sqrt(n)) and (kappa-gamma)(Omega-omega) > 0 that apply
    when Gamma_A^2 > 0. GR's value never depends on n; it is valid where level
    n still has the transition (d_kg^2 > 4 n g^2 at the point), not where the
    level's reversal transition preempted it. SI is the same for every level.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown boundary family {family!r}; families: {FAMILIES}")
    if solved_for not in SOLVABLE:
        raise ValidationError(f"no closed form for {solved_for!r}; solvable parameters: {SOLVABLE}")
    if n < 1:
        raise ValidationError(f"family {family} needs a level n >= 1, got {n}")
    value, valid, block, n_max = _solve(params, family, solved_for, n)
    if family == "SI":
        detail = "no tilting for every level at this point"
    elif family == "GR":
        detail = (f"transition exists for levels n < {n_max:.6g}; "
                  + (f"level n={n} keeps it" if valid else f"level n={n} is preempted (met the reversal transition)"))
    else:
        detail = f"A = {block.A:.6g} at the point ({'A < 0 holds' if valid else 'requires A < 0'})"
        if solved_for == "Gamma":
            c = params.composites()
            d_Ww, d_kg, g = c.d_Omega_omega, c.d_kappa_gamma, params.g
            gamma_a_sq = g * g + (d_Ww * d_Ww - d_kg * d_kg) / (4.0 * n)
            if gamma_a_sq > 0.0:
                detail += (f"; Gamma_A^2 = {gamma_a_sq:.6g} > 0 so existence needs Gamma_R > "
                           f"{abs(d_Ww) / (2.0 * math.sqrt(n)):.6g} and (kappa-gamma)(Omega-omega) > 0 "
                           f"[{'met' if valid and value > 0 else 'not met'}]")
            else:
                detail += f"; Gamma_A^2 = {gamma_a_sq:.6g} <= 0 (transition exists for any Gamma_R)"
        if value < 0.0:
            detail += "; note: boundary value is a negative rate"
    return BoundaryPoint(family, solved_for, value, valid, detail, level_dependent=family == "R")


def all_boundaries(params: ModelParams, n: int, solved_for: str) -> list[BoundaryPoint]:
    """The three family points in the same variable (R first); one with no closed form is nan, not valid."""
    out = []
    for family in FAMILIES:
        try:
            out.append(boundary(params, family, n, solved_for))
        except NoBoundaryError as exc:
            out.append(BoundaryPoint(family, solved_for, math.nan, False, str(exc), level_dependent=family == "R"))
    return out
