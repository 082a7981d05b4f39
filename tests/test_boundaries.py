import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

import reference_boundaries as reference
from nhjc import (
    LevelIndex,
    ModelParams,
    NhjcError,
    NoBoundaryError,
    ValidationError,
    all_boundaries,
    block_quantities,
    boundary,
    gaps,
    texture_coefficients,
    winding_direction,
)
from nhjc.boundaries import FAMILIES, SOLVABLE, _solve
from nhjc.errors import NegativeRateWarning
from nhjc.params import PARAM_NAMES, ParamGrid, reference_config

BASE = reference_config(Gamma=0.0)  # kappa=0.5, gamma=0.2, omega=0.9, g at 0.1 of scale


def test_reversal_point_value_and_sign_change():
    point = boundary(BASE, "R", 2, "Gamma")
    assert point.value == pytest.approx(0.3 * 0.1 / (8.0 * BASE.g), rel=1e-12)
    assert point.value == pytest.approx(0.0791, abs=5e-5)
    assert point.valid and point.level_dependent
    # oracle: B changes sign across the returned value
    below = block_quantities(reference_config(Gamma=point.value * 0.999), 2).B
    above = block_quantities(reference_config(Gamma=point.value * 1.001), 2).B
    assert below * above < 0.0
    at = block_quantities(reference_config(Gamma=point.value), 2)
    assert abs(at.B) < 1e-12 * abs(0.5 * 0.3 * 0.1)


def test_reversal_point_solved_for_each_variable():
    for solved_for in ("kappa", "Gamma", "gamma", "g"):
        point = boundary(reference_config(), "R", 2, solved_for)
        at = reference_config().with_value(solved_for, point.value)
        assert abs(block_quantities(at, 2).B) < 1e-12


def test_reversal_rejects_degenerate_resonance():
    p = ModelParams(omega=1.0, Omega=1.0, g=0.1, kappa=0.5, gamma=0.2, Gamma=0.05)
    with pytest.raises(NoBoundaryError):
        boundary(p, "R", 1, "kappa")


def test_reversal_invalid_when_A_positive():
    strong = ModelParams(omega=0.9, Omega=1.0, g=0.8, kappa=0.5, gamma=0.2)
    point = boundary(strong, "R", 1, "Gamma")
    assert not point.valid
    assert "A" in point.validity_detail


def test_gapped_reversal_value_and_level_independence():
    point = boundary(BASE, "GR", 1, "Gamma")
    assert point.value == pytest.approx(BASE.g * 0.1 / 0.3, rel=1e-12)
    assert point.value == pytest.approx(0.01581, abs=5e-6)
    assert not point.level_dependent
    assert boundary(BASE, "GR", 1, "Gamma").value == boundary(BASE, "GR", 7, "Gamma").value


def test_gapped_reversal_zeroes_the_z_coefficient():
    point = boundary(BASE, "GR", 2, "Gamma")
    assert point.valid
    at = reference_config(Gamma=point.value)
    for n in (1, 2, 7):
        for eta in (-1, 1):
            coeffs = texture_coefficients(at, LevelIndex(n, eta))
            scale = abs(at.g * 0.1) + abs(at.Gamma * 0.3)
            assert abs(coeffs.c_z) < 1e-12 * scale


def test_gapped_reversal_preemption():
    # levels at and beyond the meeting line with the reversal transition
    point = boundary(BASE, "GR", 11, "Gamma")
    assert not point.valid
    assert "preempted" in point.validity_detail
    at = reference_config(Gamma=point.value)
    coeffs = texture_coefficients(at, LevelIndex(11, -1))
    assert abs(coeffs.c_z) > 1e-4  # the transition is genuinely gone


def test_super_invariant_value_and_coefficient():
    base = reference_config(Gamma=0.05)
    point = boundary(base, "SI", 1, "gamma")
    assert point.value == pytest.approx(0.5 + 0.05 * 0.1 / BASE.g, rel=1e-12)
    assert point.value == pytest.approx(0.6054, abs=5e-5)
    assert point.valid and not point.level_dependent
    at = base.with_value("gamma", point.value)
    for n in (1, 10, 100):
        coeffs = texture_coefficients(at, LevelIndex(n, -1))
        assert abs(coeffs.c_y) < 1e-12


def test_super_invariant_meets_reversal_in_hermitian_limit():
    # kappa = gamma, Gamma = 0: the no-tilt condition collapses onto g = 0
    p = ModelParams(omega=0.9, Omega=1.0, g=0.3, kappa=0.4, gamma=0.4, Gamma=0.0)
    assert boundary(p, "SI", 1, "Gamma").value == 0.0
    with pytest.raises(NoBoundaryError):
        boundary(p, "SI", 1, "g")  # 0/0: no closed form left in g
    q = ModelParams(omega=0.9, Omega=1.0, g=0.3, kappa=0.4, gamma=0.5, Gamma=0.0)
    assert boundary(q, "SI", 1, "g").value == 0.0


def test_gap_laws_at_the_three_families():
    for n in range(1, 6):
        r_point = boundary(BASE, "R", n, "Gamma")
        assert r_point.valid
        assert gaps(reference_config(Gamma=r_point.value), n).delta_minus < 1e-10
    gr_point = boundary(BASE, "GR", 2, "Gamma")
    assert gaps(reference_config(Gamma=gr_point.value), 2).delta_minus > 1e-3
    si_base = reference_config(Gamma=0.05)
    si_point = boundary(si_base, "SI", 1, "gamma")
    at = si_base.with_value("gamma", si_point.value)
    assert gaps(at, 1).delta_minus > 1e-6


def test_level_independent_families_never_read_n():
    for family, solved_for in (("GR", "Gamma"), ("SI", "gamma")):
        # bit-identical
        assert boundary(BASE, family, 1, solved_for).value == boundary(BASE, family, 7, solved_for).value


def test_direction_flip_certificates():
    # s_zx flips across R and GR; s_yx flips across SI; s_zx does not flip at SI
    n = 2
    level = LevelIndex(n, -1)

    def s(params, plane):
        return winding_direction(texture_coefficients(params, level), plane)

    gr = boundary(BASE, "GR", n, "Gamma").value
    assert s(reference_config(Gamma=gr - 1e-4), "zx") != s(reference_config(Gamma=gr + 1e-4), "zx")
    r = boundary(BASE, "R", n, "Gamma").value
    assert s(reference_config(Gamma=r - 1e-4), "zx") != s(reference_config(Gamma=r + 1e-4), "zx")
    si_base = reference_config(Gamma=0.05)
    si = boundary(si_base, "SI", 1, "gamma").value
    lo = si_base.with_value("gamma", si - 1e-4)
    hi = si_base.with_value("gamma", si + 1e-4)
    assert s(lo, "yx") != s(hi, "yx")
    assert s(lo, "zx") == s(hi, "zx")


def test_all_boundaries_bundle():
    points = all_boundaries(BASE, 2, "Gamma")
    assert [p.family for p in points] == ["R", "GR", "SI"]
    degenerate = ModelParams(omega=1.0, Omega=1.0, g=0.1, kappa=0.5, gamma=0.2, Gamma=0.05)
    bundle = all_boundaries(degenerate, 1, "kappa")
    r_entry = bundle[0]
    assert not r_entry.valid and math.isnan(r_entry.value)


def test_solve_for_validation():
    with pytest.raises(ValidationError):
        boundary(BASE, "R", 2, "omega")
    with pytest.raises(ValidationError):
        boundary(BASE, "R", 0, "Gamma")
    # the family, then the solved-for parameter, then the level (every
    # family's), and only then the solve (BASE has Gamma = 0: GR in kappa has
    # no closed form)
    with pytest.raises(ValidationError, match=r"^unknown boundary family 'EP'; families: \('R', 'GR', 'SI'\)$"):
        boundary(BASE, "EP", 0, "omega")
    with pytest.raises(ValidationError, match="^no closed form for 'omega'"):
        boundary(BASE, "GR", 0, "omega")
    for family in FAMILIES:
        for n in (0, -3):
            with pytest.raises(ValidationError, match=f"^family {family} needs a level n >= 1, got {n}$"):
                boundary(BASE, family, n, "kappa")
    with pytest.raises(NoBoundaryError):
        boundary(BASE, "GR", 1, "kappa")


# zero denominators of every family and solve-for: Omega = omega, kappa =
# gamma, g = 0 and Gamma = 0 (with a negative rate among them); values past
# float range (R and GR: no record holds them; SI: returned as they are); and
# random points
_EDGE_POINTS = [
    ModelParams(omega=1.0, Omega=1.0, g=0.05, kappa=0.5, gamma=0.2, Gamma=0.1),
    ModelParams(omega=0.9, Omega=1.0, g=0.05, kappa=0.3, gamma=0.3, Gamma=0.1),
    ModelParams(omega=0.9, Omega=1.0, g=0.0, kappa=0.5, gamma=0.2, Gamma=0.1),
    ModelParams(omega=0.9, Omega=1.0, g=0.05, kappa=0.5, gamma=0.2, Gamma=0.0),
    ModelParams(omega=0.9, Omega=1.0, g=0.0, kappa=0.3, gamma=0.3, Gamma=0.0),
    ModelParams(omega=1.0, Omega=1.0, g=0.0, kappa=0.3, gamma=0.3, Gamma=0.0),
    ModelParams(omega=5e-324, Omega=1e-300, g=1e10, kappa=0.5, gamma=0.2, Gamma=1e10),
    ModelParams(omega=0.9, Omega=1.0, g=1e-310, kappa=0.5, gamma=0.2, Gamma=1e10),
    ModelParams(omega=0.9, Omega=1.0, g=1e10, kappa=0.5, gamma=0.2, Gamma=1e-310),
    ModelParams(omega=0.9, Omega=1.0, g=1e-200, kappa=0.5, gamma=0.2, Gamma=0.1),
    BASE,
    reference_config(),
    ModelParams(omega=0.9, Omega=1.0, g=0.8, kappa=0.5, gamma=0.2),
]


def _random_points(count, seed):
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRateWarning)
        return [ModelParams(*rng.uniform(0.01, 1.2, 2).tolist(), *rng.uniform(-0.3, 1.2, 4).tolist())
                for _ in range(count)]


def _bits(point):
    return dataclasses.replace(point, value=struct.pack("<d", point.value))


def _outcome(fn, *args, **kwargs):
    """What a call gives: the point(s) with the value's bits, or the error."""
    try:
        result = fn(*args, **kwargs)
    except NhjcError as exc:
        return type(exc), str(exc)
    return list(map(_bits, result)) if isinstance(result, list) else _bits(result)


@pytest.mark.filterwarnings("ignore::nhjc.errors.NegativeRateWarning")
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_closed_forms_match_the_scalar_reference(n):
    # at n = 0 R and the bundle raise as the reference does, and GR and SI,
    # which the reference solves at any level, are rejected like R
    for params in _EDGE_POINTS + _random_points(40, n):
        for solved_for in SOLVABLE:
            oracles = {"R": (reference.boundary_R, (params, n, solved_for), {}),
                       "GR": (reference.boundary_GR, (params, solved_for), {"n": n}),
                       "SI": (reference.boundary_SI, (params, solved_for), {})}
            for family, (oracle, args, kwargs) in oracles.items():
                expected = (_outcome(oracle, *args, **kwargs) if n >= 1 or family == "R" else
                            (ValidationError, f"family {family} needs a level n >= 1, got {n}"))
                assert _outcome(boundary, params, family, n, solved_for) == expected
            assert (_outcome(all_boundaries, params, n, solved_for)
                    == _outcome(reference.all_boundaries, params, n, solved_for))


@pytest.mark.filterwarnings("ignore::nhjc.errors.NegativeRateWarning")
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("solved_for", SOLVABLE)
def test_grid_solutions_match_the_scalar_reference(family, solved_for):
    # every point a grid can hold a value for: zero denominators give nan and
    # not valid where a single record raises NoBoundaryError
    points = _EDGE_POINTS[:6] + _EDGE_POINTS[9:] + _random_points(60, 3)
    grid = ParamGrid(*(np.array([getattr(p, name) for p in points]) for name in PARAM_NAMES))
    for n in (1, 3):
        solution = _solve(grid, family, solved_for, n)
        for params, value, valid in zip(points, solution.value.tolist(), solution.valid.tolist()):
            try:
                if family == "R":
                    point = reference.boundary_R(params, n, solved_for)
                elif family == "GR":
                    point = reference.boundary_GR(params, solved_for, n=n)
                else:
                    point = reference.boundary_SI(params, solved_for)
            except NoBoundaryError:
                assert math.isnan(value) and valid is False
            else:
                assert struct.pack("<d", value) == struct.pack("<d", point.value)
                assert valid is point.valid


@pytest.mark.parametrize("family, edge", [("R", _EDGE_POINTS[6]), ("GR", _EDGE_POINTS[8])])
def test_grid_value_past_float_range_raises_as_a_record_does(family, edge):
    # kappa = inf at the edge point
    grid = ParamGrid(*(np.array([getattr(p, name) for p in (BASE, edge, edge)]) for name in PARAM_NAMES))
    expected = _outcome(getattr(reference, f"boundary_{family}"), edge,
                        *((1, "kappa") if family == "R" else ("kappa",)))
    assert expected == (ValidationError, "kappa must be finite, got inf")
    with pytest.raises(ValidationError, match="^kappa must be finite, got inf$"):
        _solve(grid, family, "kappa", 1)
