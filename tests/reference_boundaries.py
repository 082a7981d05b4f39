"""Reference boundary closed forms: R, GR and SI solved one ModelParams at a
time, with a record per substituted value, and the sweep overlays built from
them one sampled point at a time. nhjc.boundaries evaluates the same forms in
operator form over whole grids; these functions are the oracle it is
compared with, value by value, bit by bit and message by message."""

import itertools
import math
import warnings

from nhjc import BoundaryPoint, block_quantities
from nhjc.boundaries import FAMILIES, SOLVABLE
from nhjc.errors import NegativeRateWarning, NoBoundaryError, ValidationError


def _check_solvable(solved_for):
    if solved_for not in SOLVABLE:
        raise ValidationError(
            f"no closed form for {solved_for!r}; solvable parameters: {SOLVABLE}"
        )


def _denominator(name, value, family, solved_for):
    if value == 0.0:
        raise NoBoundaryError(
            f"family {family} has no boundary in {solved_for}: {name} is zero"
        )
    return value


def _at_value(params, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRateWarning)
        return params.with_value(name, value)


def boundary_R(params, n, solved_for):
    _check_solvable(solved_for)
    if n < 1:
        raise ValidationError(f"family R needs a level n >= 1, got {n}")
    c = params.composites()
    d_Ww, d_kg = c.d_Omega_omega, c.d_kappa_gamma
    g, Gamma, kappa, gamma = params.g, params.Gamma, params.kappa, params.gamma
    if solved_for == "kappa":
        value = gamma + 4.0 * n * g * Gamma / _denominator("Omega - omega", d_Ww, "R", solved_for)
    elif solved_for == "gamma":
        value = kappa - 4.0 * n * g * Gamma / _denominator("Omega - omega", d_Ww, "R", solved_for)
    elif solved_for == "Gamma":
        value = d_kg * d_Ww / (4.0 * n * _denominator("g", g, "R", solved_for))
    else:
        value = d_kg * d_Ww / (4.0 * n * _denominator("Gamma", Gamma, "R", solved_for))
    at_point = _at_value(params, solved_for, value)
    A = block_quantities(at_point, n).A
    valid = A < 0.0
    detail = f"A = {A:.6g} at the point ({'A < 0 holds' if valid else 'requires A < 0'})"
    if solved_for == "Gamma":
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
    return BoundaryPoint("R", solved_for, value, valid, detail, True)


def _squared(x):
    """x**2, inf past float range (where the library's square stops; ** raises)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def boundary_GR(params, solved_for, n=None):
    _check_solvable(solved_for)
    c = params.composites()
    d_Ww, d_kg = c.d_Omega_omega, c.d_kappa_gamma
    g, Gamma, kappa, gamma = params.g, params.Gamma, params.kappa, params.gamma
    if solved_for == "kappa":
        value = gamma + g * d_Ww / _denominator("Gamma", Gamma, "GR", solved_for)
    elif solved_for == "gamma":
        value = kappa - g * d_Ww / _denominator("Gamma", Gamma, "GR", solved_for)
    elif solved_for == "Gamma":
        value = g * d_Ww / _denominator("kappa - gamma", d_kg, "GR", solved_for)
    else:
        value = Gamma * d_kg / _denominator("Omega - omega", d_Ww, "GR", solved_for)
    at_point = _at_value(params, solved_for, value)
    d_kg_at = at_point.kappa - at_point.gamma
    g_at = at_point.g
    if g_at == 0.0:
        n_max = math.inf if d_kg_at != 0.0 else 0.0
    else:
        n_max = _squared(d_kg_at / (2.0 * g_at))
    if n is None:
        valid = n_max > 1.0
        detail = f"transition exists for levels n < {n_max:.6g}"
    else:
        if n < 1:
            raise ValidationError(f"level n must be >= 1, got {n}")
        valid = n < n_max
        detail = (
            f"transition exists for levels n < {n_max:.6g}; "
            + (f"level n={n} keeps it" if valid
               else f"level n={n} is preempted (met the reversal transition)")
        )
    return BoundaryPoint("GR", solved_for, value, valid, detail, False)


def boundary_SI(params, solved_for):
    _check_solvable(solved_for)
    c = params.composites()
    d_Ww, d_kg = c.d_Omega_omega, c.d_kappa_gamma
    g, Gamma, kappa, gamma = params.g, params.Gamma, params.kappa, params.gamma
    if solved_for == "kappa":
        value = gamma - Gamma * d_Ww / _denominator("g", g, "SI", solved_for)
    elif solved_for == "gamma":
        value = kappa + Gamma * d_Ww / _denominator("g", g, "SI", solved_for)
    elif solved_for == "Gamma":
        value = -g * d_kg / _denominator("Omega - omega", d_Ww, "SI", solved_for)
    else:
        value = -Gamma * d_Ww / _denominator("kappa - gamma", d_kg, "SI", solved_for)
    return BoundaryPoint("SI", solved_for, value, True, "no tilting for every level at this point", False)


def all_boundaries(params, n, solved_for):
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
            out.append(BoundaryPoint(family, solved_for, math.nan, False, str(exc), family == "R"))
    return out


def reference_overlay(spec, family):
    """sweep._overlay one sampled point and one level at a time."""
    solve_axis = next((a for a in spec.axes if a.name in SOLVABLE), None)
    if solve_axis is None:
        return (("note",), [("no closed-form axis for overlay",)])
    other_axes = [a for a in spec.axes if a is not solve_axis]
    level_column = ("n",) if family == "R" else ()
    columns = tuple(a.name for a in other_axes) + level_column + (solve_axis.name, "valid")
    positive_levels = sorted({lvl.n for lvl in spec.levels if lvl.n >= 1})
    levels = positive_levels if family == "R" else [None]
    out = []
    for coords in itertools.product(*(a.values() for a in other_axes)):
        prefix = [float(value) for value in coords]
        params = spec.base
        for axis, value in zip(other_axes, prefix):
            params = params.with_value(axis.name, value)
        for n in levels:
            try:
                if family == "R":
                    point = boundary_R(params, n, solve_axis.name)
                elif family == "GR":
                    point = boundary_GR(params, solve_axis.name,
                                        n=positive_levels[0] if positive_levels else None)
                else:
                    point = boundary_SI(params, solve_axis.name)
                value, valid = point.value, point.valid
            except NoBoundaryError:
                value, valid = math.nan, False
            row = list(prefix)
            if family == "R":
                row.append(n)
            row.extend([value, valid])
            out.append(tuple(row))
    return (columns, out)
