import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from nhjc import (
    LevelIndex,
    ModelParams,
    ValidationError,
    coupling_scale,
    load_params,
    params_from_dict,
)
from nhjc.errors import NegativeRateWarning


def test_valid_reference_point():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.04743, kappa=0.5, gamma=0.2, Gamma=0.1)
    assert p.omega == 0.9 and p.Gamma == 0.1
    assert not p.is_hermitian


def test_hermitian_limit_is_exact_predicate():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.04743)
    assert p.is_hermitian
    q = ModelParams(omega=0.9, Omega=1.0, g=0.04743, Gamma=1e-300)
    assert not q.is_hermitian


@pytest.mark.parametrize("field,value", [("Omega", 0.0), ("Omega", -1.0), ("omega", 0.0)])
def test_nonpositive_scales_rejected(field, value):
    kwargs = dict(omega=0.9, Omega=1.0, g=0.1)
    kwargs[field] = value
    with pytest.raises(ValidationError, match=field):
        ModelParams(**kwargs)


def test_negative_rates_warn_but_construct():
    with pytest.warns(NegativeRateWarning):
        p = ModelParams(omega=0.9, Omega=1.0, g=0.1, gamma=-0.2)
    assert p.has_negative_rates


def test_composites_are_deterministic_and_exact():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.04743, kappa=0.5, gamma=0.2, Gamma=0.1)
    a, b = p.composites(), p.composites()
    assert a == b  # bit-identical recomputation
    assert a.omega_t == complex(0.9, -0.5)
    assert a.Omega_t == complex(1.0, -0.2)
    assert a.g_t == complex(0.04743, -0.1)
    assert a.d_Omega_omega == 1.0 - 0.9
    assert a.d_kappa_gamma == 0.5 - 0.2


def test_coupling_scale_convention():
    assert coupling_scale(0.9, 1.0) == math.sqrt(0.9) / 2.0
    p = ModelParams(omega=0.9, Omega=1.0, g=0.1 * coupling_scale(0.9, 1.0))
    assert p.g_rel == pytest.approx(0.1, abs=1e-15)


def test_level_index_validation():
    assert LevelIndex(0).eta == -1
    with pytest.raises(ValidationError):
        LevelIndex(-1)
    with pytest.raises(ValidationError):
        LevelIndex(2, 0)


def test_json_object_with_relative_coupling():
    p = params_from_dict({"omega": 0.9, "Omega": 1.0, "g_rel": 0.1, "kappa": 0.5})
    assert p.g == pytest.approx(0.1 * math.sqrt(0.9) / 2.0, rel=1e-15)
    assert p.gamma == 0.0


def test_json_object_requires_exactly_one_coupling_key():
    with pytest.raises(ValidationError, match="exactly one"):
        params_from_dict({"omega": 0.9, "Omega": 1.0})
    with pytest.raises(ValidationError, match="exactly one"):
        params_from_dict({"omega": 0.9, "Omega": 1.0, "g": 0.1, "g_rel": 0.1})


def test_json_object_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown"):
        params_from_dict({"omega": 0.9, "Omega": 1.0, "g": 0.1, "coupling": 2})


def test_load_params_roundtrip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"omega": 0.9, "Omega": 1.0, "g": 0.25, "Gamma": 0.05}))
    p = load_params(path)
    assert p == ModelParams(omega=0.9, Omega=1.0, g=0.25, Gamma=0.05)


def test_with_value_replaces_one_field():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.1)
    q = p.with_value("Gamma", 0.07)
    assert q.Gamma == 0.07 and q.g == 0.1 and p.Gamma == 0.0
    with pytest.raises(ValidationError):
        p.with_value("nope", 1.0)


# --- numpy ufuncs standing in for math on grids (see the params docstring) ---

_MAX = 1.7976931348623157e308
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1.0, -1.0,
             math.pi, -math.pi, 0.5 * math.pi, 1e300, -1e300, _MAX, -_MAX, math.inf, -math.inf, math.nan]


def _random_floats(rng, count):
    """count floats with random signs and magnitudes spread over 1e-320 .. 1e300,
    the specials appended."""
    magnitude = 10.0 ** rng.uniform(-320.0, 300.0, count)
    return np.concatenate((rng.choice([-1.0, 1.0], count) * magnitude, _SPECIALS))


def _same_bits(got, want):
    """Bit for bit equal, sign bits included; any nan matches any nan."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    return (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))


def _complex(re, im):
    z = np.empty(np.shape(re), complex)
    z.real, z.imag = re, im
    return z


def _abs(z):
    """abs(z), inf where it raises OverflowError (as modulus gives it)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _mapped(fn, *arrays):
    return np.array([fn(*args) for args in zip(*(a.tolist() for a in arrays))])


def test_grid_ufuncs_give_the_bits_of_math():
    """Each ufunc a grid uses in place of math gives math's bits. A platform
    or numpy build (SIMD dispatch) where one does not fails here, and that
    function must go back to a map in nhjc.params."""
    from nhjc.params import _finite, modulus
    from nhjc.spectrum import _cos, _sin, _sqrt

    rng = np.random.default_rng(20240901)
    x = _random_floats(rng, 100_000)
    y = _random_floats(rng, 100_000)
    finite = x[np.isfinite(x)]  # math.cos/sin raise on +-inf; a half angle is never infinite
    nonnegative = np.where(x < 0.0, -x, x)  # -0.0 kept
    with np.errstate(invalid="ignore"):
        cases = {
            "sqrt": (_sqrt(nonnegative), _mapped(math.sqrt, nonnegative)),
            "cos": (_cos(finite), _mapped(math.cos, finite)),
            "sin": (_sin(finite), _mapped(math.sin, finite)),
            "isfinite": (_finite(x), _mapped(math.isfinite, x)),
            "modulus": (modulus(_complex(x, y)), _mapped(lambda a, b: _abs(complex(a, b)), x, y)),
        }
    # every pairing of the specials, as parts of a complex number
    z = _complex(*np.meshgrid(_SPECIALS, _SPECIALS)).ravel()
    cases["modulus of specials"] = (modulus(z), _mapped(_abs, z))
    for name, (got, want) in cases.items():
        assert got.shape == want.shape, name
        assert _same_bits(got, want).all(), f"{name}: {np.count_nonzero(~_same_bits(got, want))} differ"


def test_grid_root_and_ratios_give_the_bits_of_a_scalar_call():
    """BlockQuantities.root equals R * cmath.exp(0.5j * vartheta), and the
    tilt and coefficient ratios (params.quotient) equal their scalar
    division, bit for bit."""
    from nhjc.params import modulus, quotient
    from nhjc.spectrum import block_quantities

    def coefficient_ratio(c_up, c_down):
        return quotient(modulus(c_up), modulus(c_down))

    rng = np.random.default_rng(7)
    count = 100_000
    R = np.concatenate((10.0 ** rng.uniform(-320.0, 300.0, count), [0.0, 5e-324, _MAX, math.inf, math.nan] * 4))
    theta = np.concatenate((rng.uniform(-math.pi, math.pi, count),
                            np.repeat([0.0, math.pi, -math.pi, math.nan], 5)))
    scalar = block_quantities(ModelParams(0.9, 1.0, 0.1), 1)

    def root_of(r, t, cos, sin):
        return dataclasses.replace(scalar, R=r, vartheta=t, r_cos=r * cos(0.5 * t), r_sin=r * sin(0.5 * t)).root

    with np.errstate(invalid="ignore"):  # inf * 0
        root = root_of(R, theta, np.cos, np.sin)
    want = _mapped(lambda r, t: r * cmath.exp(0.5j * t), R, theta)
    assert _same_bits(root.real, want.real).all() and _same_bits(root.imag, want.imag).all()
    # the scalar route builds the same complex from floats
    sample = np.concatenate((R[:2000], R[-20:])), np.concatenate((theta[:2000], theta[-20:]))
    root = _mapped(lambda r, t: root_of(r, t, math.cos, math.sin), *sample)
    want = _mapped(lambda r, t: r * cmath.exp(0.5j * t), *sample)
    assert _same_bits(root.real, want.real).all() and _same_bits(root.imag, want.imag).all()

    # abs(complex) raises where the modulus leaves float range: keep clear of it
    x, y = (np.where(np.abs(v) == _MAX, 1e300, v) for v in (_random_floats(rng, count), _random_floats(rng, count)))
    y[::7] = 0.0  # a zero denominator in every seventh
    y[1::7] = -0.0
    for fn, args in ((quotient, (x, y)),
                     (coefficient_ratio, (_complex(x, y), _complex(y, -x))),
                     (coefficient_ratio, (_complex(x, x), _complex(y, np.zeros_like(y))))):
        got = fn(*args)
        assert _same_bits(got, _mapped(fn, *args)).all(), fn.__name__


def test_taken_rows_carry_the_kept_blocks_bit_for_bit(evaluations):
    """ParamGrid.take carries the blocks kept on the grid to the rows it
    selects, bit for bit the blocks a fresh evaluation of those rows gives."""
    from nhjc.params import PARAM_NAMES, ParamGrid
    from nhjc.spectrum import block_quantities

    rng = np.random.default_rng(5)
    grid = ParamGrid(*rng.uniform(0.001, 1.2, (6, 400)))
    kept = {n: block_quantities(grid, n) for n in (1, 4, 9)}
    for index in (slice(7, 300), rng.random(400) < 0.3, np.arange(399, 0, -3)[:, None]):
        taken = grid.take(index)
        evaluations.clear()
        carried = {n: block_quantities(taken, n) for n in kept}
        assert evaluations == []
        fresh = ParamGrid(*(getattr(taken, name) for name in PARAM_NAMES))
        for n, block in carried.items():
            again = block_quantities(fresh, n)
            assert block.n == again.n == n
            for field in dataclasses.fields(block)[1:]:
                got, want = (np.asarray(getattr(b, field.name)) for b in (block, again))
                assert got.shape == want.shape == taken.g.shape, field.name
                if got.dtype == complex:
                    got, want = np.stack((got.real, got.imag)), np.stack((want.real, want.imag))
                assert _same_bits(got, want).all(), (n, field.name)
