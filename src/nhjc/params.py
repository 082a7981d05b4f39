"""Model parameters of the dissipative Jaynes-Cummings Hamiltonian

    H = w~ a+a + W~/2 sx + g~ (s- a+ + s+ a),

with complex frequencies built from six real inputs,

    w~ = omega - i*kappa,   W~ = Omega - i*gamma,   g~ = g - i*Gamma.

Conventions: Omega is the customary unit of energy (set Omega = 1); kappa,
gamma, Gamma are the cavity, qubit and coupling decay rates. All records are
frozen dataclasses, safe to share across workers.

ParamGrid holds the six parameters as arrays, one point per element. The
kernels are written once in operator form and take either record: their
arithmetic (+ - * / and sqrt, exact in IEEE) runs on floats or arrays alike,
and every math/cmath call goes through `elementwise`, which maps the same
function over the elements of an array. numpy's own arctan2, hypot, |z| and
x**2 differ from math's in the last bit on some inputs, so a grid point gets
the bits a scalar call gives it.

This module and the closed-form layer on it (spectrum, boundaries) import no
numpy, so a caller with ModelParams alone never loads it: the helpers below
look for an ndarray only when numpy is in sys.modules, since no array can
exist before it is loaded.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import NegativeRateWarning, ValidationError

__all__ = [
    "ModelParams",
    "ParamGrid",
    "ComplexComposites",
    "LevelIndex",
    "coupling_scale",
    "params_from_dict",
    "load_params",
    "N_MAX",
]

RATE_NAMES = ("kappa", "gamma", "Gamma")
PARAM_NAMES = ("omega", "Omega", "g") + RATE_NAMES
SWEEPABLE = ("omega", "g", "kappa", "gamma", "Gamma")

# highest level of the validity domain (n <= 200, |x| <= 40)
N_MAX = 200


def elementwise(fn, dtype=float):
    """fn itself on scalars; on an ndarray first argument, fn mapped over the
    elements of the broadcast arguments (an array of the broadcast shape)."""
    def apply(*args):
        if not ((np := sys.modules.get("numpy")) and isinstance(args[0], np.ndarray)):
            return fn(*args)
        arrays = np.broadcast_arrays(*args) if len(args) > 1 else args
        mapped = map(fn, *(a.ravel().tolist() for a in arrays))
        return np.fromiter(mapped, dtype, arrays[0].size).reshape(arrays[0].shape)
    return apply


def where(cond, a, b):
    """a where cond holds, else b: np.where on arrays, a plain choice on scalars."""
    if (np := sys.modules.get("numpy")) and isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def maximum(*values):
    """Largest of the values, elementwise if any is an array."""
    if (np := sys.modules.get("numpy")) and np.ndarray in map(type, values):
        return functools.reduce(np.maximum, values)
    return max(values)


def minimum(*values):
    """Smallest of the values, elementwise if any is an array."""
    if (np := sys.modules.get("numpy")) and np.ndarray in map(type, values):
        return functools.reduce(np.minimum, values)
    return min(values)


def raise_where(flags, error, message: str, **values) -> None:
    """Raise error(message) if flags holds, with the named values appended.
    On arrays: for the first flagged element, with its values and its flat
    index as the error's index."""
    if (np := sys.modules.get("numpy")) and isinstance(flags, np.ndarray):
        if not flags.any():
            return
        index = int(np.argmax(flags))
        values = {name: np.ravel(v)[index].item() for name, v in values.items()}
    elif flags:
        index = None
    else:
        return
    if values:
        message += " (" + ", ".join(f"{name}={v!r}" for name, v in values.items()) + ")"
    raise error(message, index=index)


def quiet_overflow(fn):
    """fn(params, ...) run under np.errstate(over="ignore", divide="ignore")
    when params is a ParamGrid: numpy warns of the inf that float arithmetic
    gives a ModelParams silently. The values are the same either way."""
    @functools.wraps(fn)
    def run(params, *args, **kwargs):
        if not isinstance(params, ParamGrid):
            return fn(params, *args, **kwargs)
        import numpy as np
        with np.errstate(over="ignore", divide="ignore"):
            return fn(params, *args, **kwargs)
    return run


def _complex_array(re, im):
    """complex(re, im) of every element of two arrays; copying the parts in is exact."""
    import numpy as np
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im
    return z


def coupling_scale(omega: float, Omega: float) -> float:
    """Natural coupling unit g_s = sqrt(omega*Omega)/2 used by relative couplings."""
    return math.sqrt(omega * Omega) / 2.0


@dataclass(frozen=True)
class ComplexComposites:
    """Derived complex frequencies and the two real detunings."""

    omega_t: complex  # omega - i*kappa
    Omega_t: complex  # Omega - i*gamma
    g_t: complex      # g - i*Gamma
    d_Omega_omega: float  # Omega - omega
    d_kappa_gamma: float  # kappa - gamma


def _composites(p, make_complex) -> ComplexComposites:
    """The composites of p, computed on first use and kept on the instance."""
    cached = p.__dict__.get("_composites")
    if cached is None:
        cached = ComplexComposites(
            omega_t=make_complex(p.omega, -p.kappa),
            Omega_t=make_complex(p.Omega, -p.gamma),
            g_t=make_complex(p.g, -p.Gamma),
            d_Omega_omega=p.Omega - p.omega,
            d_kappa_gamma=p.kappa - p.gamma,
        )
        object.__setattr__(p, "_composites", cached)  # ModelParams is frozen: bypass the guard
    return cached


@dataclass(frozen=True)
class ModelParams:
    """The six real model parameters. Omega and omega must be positive."""

    omega: float
    Omega: float
    g: float
    kappa: float = 0.0
    gamma: float = 0.0
    Gamma: float = 0.0

    def __post_init__(self):
        for name in ("omega", "Omega"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValidationError(f"{name} must be positive, got {value!r}")
        for name in ("g",) + RATE_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.has_negative_rates:
            bad = [n for n in RATE_NAMES if getattr(self, n) < 0.0]
            warnings.warn(
                f"negative decay rate(s) {', '.join(bad)}: formulas remain valid "
                "but the parameters are unphysical as loss rates",
                NegativeRateWarning,
                stacklevel=2,
            )

    @property
    def has_negative_rates(self) -> bool:
        return any(getattr(self, n) < 0.0 for n in RATE_NAMES)

    @property
    def is_hermitian(self) -> bool:
        """Exact (not tolerance-based) test for kappa = gamma = Gamma = 0."""
        return self.kappa == 0.0 and self.gamma == 0.0 and self.Gamma == 0.0

    @property
    def g_s(self) -> float:
        return coupling_scale(self.omega, self.Omega)

    @property
    def g_rel(self) -> float:
        return self.g / self.g_s

    def composites(self) -> ComplexComposites:
        """Pure function of the six reals, computed once per instance."""
        return _composites(self, complex)

    def with_value(self, name: str, value: float) -> "ModelParams":
        """Copy with one named parameter replaced (used by sweeps/boundaries)."""
        if name not in PARAM_NAMES:
            raise ValidationError(f"unknown parameter {name!r}")
        return replace(self, **{name: value})


class ParamGrid:
    """The six model parameters over a set of points: equal-shape float
    arrays whose elements each form a valid ModelParams (the caller checks
    that; SweepSpec does it for its axes). block_quantities and the formulas
    built on it take a ParamGrid in place of ModelParams and return arrays."""

    def __init__(self, omega, Omega, g, kappa, gamma, Gamma):
        self.omega, self.Omega, self.g = omega, Omega, g
        self.kappa, self.gamma, self.Gamma = kappa, gamma, Gamma

    @classmethod
    def product(cls, base: ModelParams, axes: dict) -> "ParamGrid":
        """base with the named parameters set to every combination of their
        values (arrays), flattened row-major (first axis slowest)."""
        import numpy as np
        mesh = np.meshgrid(*axes.values(), indexing="ij")
        size = math.prod(map(len, axes.values()))  # no axes: base alone
        values = {name: np.full(size, getattr(base, name)) for name in PARAM_NAMES}
        values.update((name, m.ravel()) for name, m in zip(axes, mesh))
        return cls(**values)

    def composites(self) -> ComplexComposites:
        return _composites(self, _complex_array)

    def take(self, index) -> "ParamGrid":
        """The grid of the selected elements."""
        return ParamGrid(**{name: getattr(self, name)[index] for name in PARAM_NAMES})

    def point(self, index: int) -> ModelParams:
        """The ModelParams of one element (index into the flattened arrays)."""
        return ModelParams(**{name: float(getattr(self, name).flat[index]) for name in PARAM_NAMES})


_finite = elementwise(math.isfinite, bool)


def _replaced(params: ModelParams | ParamGrid, name: str, value) -> ModelParams | ParamGrid:
    """params with one parameter set to value (an array of the grid's shape
    over a ParamGrid). The value is a result, not an input, so a negative
    rate is not warned about; a non-finite one raises the ValidationError of
    a ModelParams holding it (over a grid, of the first such element)."""
    fields = {key: getattr(params, key) for key in PARAM_NAMES}
    fields[name] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRateWarning)
        if isinstance(params, ModelParams):
            return ModelParams(**fields)
        grid = ParamGrid(**fields)
        finite = _finite(value)
        if not finite.all():
            grid.point(int(finite.argmin()))
        return grid


@dataclass(frozen=True)
class LevelIndex:
    """Excitation number n >= 0 and branch sign eta (ignored for n = 0)."""

    n: int
    eta: int = -1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValidationError(f"n must be an integer >= 0, got {self.n!r}")
        if self.eta not in (+1, -1):
            raise ValidationError(f"eta must be +1 or -1, got {self.eta!r}")


_PARAM_KEYS = {"omega", "Omega", "g", "g_rel", "kappa", "gamma", "Gamma"}


def params_from_dict(data: dict) -> ModelParams:
    """Build ModelParams from a JSON-style mapping.

    Exactly one of ``g`` / ``g_rel`` must be present; ``g_rel`` means
    g = g_rel * g_s with g_s = sqrt(omega*Omega)/2. Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"parameter object must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _PARAM_KEYS)
    if unknown:
        raise ValidationError(f"unknown parameter key(s): {', '.join(map(repr, unknown))}")
    for required in ("omega", "Omega"):
        if required not in data:
            raise ValidationError(f"missing required parameter {required!r}")
    has_g, has_rel = "g" in data, "g_rel" in data
    if has_g == has_rel:
        raise ValidationError("exactly one of 'g' and 'g_rel' must be given")
    omega = _number(data, "omega")
    Omega = _number(data, "Omega")
    if has_rel:
        if not (omega > 0.0 and Omega > 0.0):
            raise ValidationError("g_rel requires positive omega and Omega")
        g = _number(data, "g_rel") * coupling_scale(omega, Omega)
    else:
        g = _number(data, "g")
    return ModelParams(
        omega=omega,
        Omega=Omega,
        g=g,
        kappa=_number(data, "kappa"),
        gamma=_number(data, "gamma"),
        Gamma=_number(data, "Gamma"),
    )


def _number(data: dict, key: str) -> float:
    """data[key] (0 when absent) as a float; anything but a JSON number in
    float range (a string or a boolean too) is a ValidationError."""
    value = data.get(key, 0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond float range
            pass
    raise ValidationError(f"parameter {key!r} must be a number, got {value!r}")


def load_params(path: str | Path) -> ModelParams:
    """Read a parameter JSON file (see params_from_dict for the schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        # integers read as floats: one past float range is inf, one past
        # int()'s digit limit no ValueError
        data = json.load(fh, parse_int=float)
    return params_from_dict(data)
