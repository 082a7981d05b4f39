"""Model parameters of the dissipative Jaynes-Cummings Hamiltonian

    H = w~ a+a + W~/2 sx + g~ (s- a+ + s+ a),

with complex frequencies built from six real inputs,

    w~ = omega - i*kappa,   W~ = Omega - i*gamma,   g~ = g - i*Gamma.

Conventions: Omega is the customary unit of energy (set Omega = 1); kappa,
gamma, Gamma are the cavity, qubit and coupling decay rates. All records are
frozen dataclasses, safe to share across workers.

ParamGrid holds the six parameters as arrays, one point per element. The
kernels are written once in operator form and take either record: their
arithmetic (+ - * /, exact in IEEE) runs on floats or arrays alike, and every
math call goes through `elementwise` (abs of a complex through `modulus`), so
a grid point gets the bits a scalar call gives it. On arrays that is a numpy
ufunc where the ufunc gives math's bits, else a map of the math function:

    ufunc:   np.sqrt, np.cos, np.sin, np.isfinite; np.hypot(z.real, z.imag)
             for abs(z), since CPython's abs(complex) is libm hypot
    mapped:  math.atan2 (np.arctan2 differs in 2 358 of 400 000 outputs),
             math.hypot (CPython's own; np.hypot differs in 205) and
             math.atan (np.arctan: 210)

The counts are for x, y = N(0, 1) * exp(U(-30, 30)), numpy seed 1, numpy 2.4
on x86-64 with AVX-512. tests/test_params.py holds each ufunc to its math
function bit for bit, so a platform or numpy build where one differs fails
there. A square is one multiply, x * x, correctly rounded on floats and
arrays alike (x ** 2 is libm pow on a float, which is not).

A record keeps what is computed from it on first use (kept): its composites,
and block n of the spectrum. ParamGrid.take carries the kept blocks to the
rows it selects.

This module and the closed-form layer on it (spectrum, boundaries) import no
numpy, so a caller with ModelParams alone never loads it: the helpers below
look for an ndarray only when numpy is in sys.modules, since no array can
exist before it is loaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import NegativeRateWarning, NhjcError, ValidationError

__all__ = [
    "ModelParams",
    "ParamGrid",
    "ComplexComposites",
    "LevelIndex",
    "coupling_scale",
    "params_from_dict",
    "load_params",
    "N_MAX",
    "PARAM_MAX",
]

RATE_NAMES = ("kappa", "gamma", "Gamma")
PARAM_NAMES = ("omega", "Omega", "g") + RATE_NAMES
SWEEPABLE = ("omega", "g", "kappa", "gamma", "Gamma")

# highest level of the validity domain (n <= 200, |x| <= 40)
N_MAX = 200

# largest parameter magnitude of the validity domain. With every |p| <= P
# (so |Omega - omega| <= P and |kappa - gamma| <= 2P), block n has
# |A| <= (n + 5/4) P^2, |B| <= (2n + 1) P^2 and R^2 = hypot(A, B) <= |A| + |B|;
# the largest product its formulas form is Dx <= (5 + 4 R^2/P^2 + 12 R/P) P^2,
# about 2 710 P^2 at n = N_MAX, and |C_up|^2 (the largest square of the norm,
# inf past float range) is below 660 P^2. P = 1e152 keeps both under 2.8e307.
PARAM_MAX = 1e152

# profile samples (points x grid points) a pass over a grid holds at once
SAMPLE_BUDGET = 2 ** 14
# the samples of a point whose blocks and scalars alone are held
SCALAR_SAMPLES = 16


def elementwise(fn, dtype=float, ufunc: str | None = None):
    """fn itself on scalars. On an ndarray first argument: numpy's ufunc of
    that name when given (only for a ufunc with fn's bits, see the module
    docstring), else fn mapped over the elements of the broadcast arguments;
    an array of the broadcast shape either way."""
    def apply(*args):
        if not ((np := sys.modules.get("numpy")) and isinstance(args[0], np.ndarray)):
            return fn(*args)
        if ufunc:
            return getattr(np, ufunc)(*args)
        arrays = np.broadcast_arrays(*args) if len(args) > 1 else args
        mapped = map(fn, *(a.ravel().tolist() for a in arrays))
        return np.fromiter(mapped, dtype, arrays[0].size).reshape(arrays[0].shape)
    return apply


def modulus(z):
    """abs(z): on an array np.hypot of its parts, the libm hypot that
    CPython's abs(complex) calls, so the bits are the same (inf where abs
    raises OverflowError)."""
    if (np := sys.modules.get("numpy")) and isinstance(z, np.ndarray):
        with np.errstate(over="ignore"):
            return np.hypot(z.real, z.imag)
    return abs(z)


def where(cond, a, b):
    """a where cond holds, else b: np.where on arrays, a plain choice on scalars."""
    if (np := sys.modules.get("numpy")) and isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def quotient(a, b):
    """a / b, and +-inf with the sign of a where b = 0 (elementwise on arrays)."""
    if (np := sys.modules.get("numpy")) and isinstance(b, np.ndarray):
        nonzero = b != 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(nonzero, a / np.where(nonzero, b, 1.0), np.copysign(math.inf, a))
    return a / b if b != 0.0 else math.copysign(math.inf, a)


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


def float_count(count: int, width: int = 1) -> int:
    """count, or MemoryError if no numpy array holds count x width float64s."""
    if count * width > sys.maxsize // 8:  # the array's bytes must not pass sys.maxsize
        raise MemoryError(f"{count} x {width} float64 values are more than one array holds ({sys.maxsize // 8})")
    return count


def chunks(count: int, samples: int = SCALAR_SAMPLES) -> list[slice]:
    """The consecutive slices of a batch of count points that hold `samples`
    profile samples each: max(1, SAMPLE_BUDGET // samples) points a slice."""
    step = max(1, SAMPLE_BUDGET // samples)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


@contextlib.contextmanager
def batch_index(part):
    """Run the body over part of a batch (a slice, a bool mask or an index
    array of its points): an NhjcError raised with an index into the part
    leaves with the index of that point in the whole batch."""
    try:
        yield
    except NhjcError as exc:
        if exc.index is not None:
            if isinstance(part, slice):
                exc.index += part.start
            else:  # the indices of an array, or of a mask's true elements
                exc.index = int((part.ravel().nonzero()[0] if part.dtype == bool else part.ravel())[exc.index])
        raise


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


def kept(p, name: str, make):
    """make(), computed on first use and kept on the record p under name."""
    value = p.__dict__.get(name)
    if value is None:
        value = make()
        object.__setattr__(p, name, value)  # ModelParams is frozen: bypass the guard
    return value


def _composites(p, make_complex) -> ComplexComposites:
    """The composites of p, kept on it."""
    return kept(p, "_composites", lambda: ComplexComposites(
        omega_t=make_complex(p.omega, -p.kappa),
        Omega_t=make_complex(p.Omega, -p.gamma),
        g_t=make_complex(p.g, -p.Gamma),
        d_Omega_omega=p.Omega - p.omega,
        d_kappa_gamma=p.kappa - p.gamma,
    ))


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

    @classmethod
    def rows(cls, records) -> "ParamGrid":
        """The ModelParams records as a grid of one row each (shape (records, 1))."""
        import numpy as np
        return cls(**{name: np.array([[getattr(p, name)] for p in records]) for name in PARAM_NAMES})

    def composites(self) -> ComplexComposites:
        return _composites(self, _complex_array)

    def take(self, index) -> "ParamGrid":
        """The grid of the selected elements, with the blocks kept on this
        grid (spectrum.block_quantities) taken to them."""
        taken = ParamGrid(**{name: getattr(self, name)[index] for name in PARAM_NAMES})
        if blocks := self.__dict__.get("_blocks"):
            taken._blocks = {n: block.take(index) for n, block in blocks.items()}
        return taken

    def point(self, index: int) -> ModelParams:
        """The ModelParams of one element (index into the flattened arrays)."""
        return ModelParams(**{name: float(getattr(self, name).flat[index]) for name in PARAM_NAMES})


_finite = elementwise(math.isfinite, ufunc="isfinite")


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


def params_from_dict(data: dict) -> ModelParams:
    """Build ModelParams from a JSON-style mapping.

    Exactly one of ``g`` / ``g_rel`` must be present; ``g_rel`` means
    g = g_rel * g_s with g_s = sqrt(omega*Omega)/2. An unknown or missing key
    is an error, and so is a value that is not a JSON number in float range.
    """
    read_object(data, "parameter set", ("omega", "Omega"), ("g", "g_rel") + RATE_NAMES)
    if ("g" in data) == ("g_rel" in data):
        raise ValidationError("exactly one of 'g' and 'g_rel' must be given")
    number = functools.partial(read_number, data, what="parameter set")
    values = {name: number(name) for name in PARAM_NAMES}  # g is 0 here when g_rel is given
    if "g_rel" in data:
        if not (values["omega"] > 0.0 and values["Omega"] > 0.0):
            raise ValidationError("g_rel requires positive omega and Omega")
        values["g"] = number("g_rel") * coupling_scale(values["omega"], values["Omega"])
    for name, value in values.items():
        check_magnitude(name, value)
    return ModelParams(**values)


def check_magnitude(name: str, value: float) -> None:
    """ValidationError if |value| is finite and past PARAM_MAX (the validity
    domain); ModelParams names a non-finite value as it always did."""
    if PARAM_MAX < abs(value) < math.inf:
        raise ValidationError(f"parameter {name!r} must have magnitude <= {PARAM_MAX:g} "
                              f"(validity domain), got {value!r}")


def load_params(path: str | Path) -> ModelParams:
    """Read a parameter JSON file (see params_from_dict for the schema)."""
    return params_from_dict(load_json(path))


# The readers of outside input (parameter files, sweep specs, CLI levels):
# each raises the error class its caller names, with a one-line message that
# names the value's key and the object it belongs to.

def load_json(path: str | Path):
    """The JSON value of a UTF-8 file. An integer literal reads as its int,
    or past float range as the float it rounds to (+-inf), which no number
    reader accepts; int() would stop at 4 300 digits."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=_json_int)


def _json_int(text: str) -> int | float:
    value = float(text)
    return int(text) if math.isfinite(value) else value


def shown(value) -> str:
    """repr(value) for a message, which never raises: an int past int()'s
    4 300 digits (or a list holding one) has no repr and shows as its type."""
    try:
        return repr(value)
    except Exception:
        return f"<{type(value).__name__} too long to show>"


def read_object(data, what: str, required, optional=(), error=ValidationError) -> dict:
    """data, if it is a JSON object with every required key and no key
    outside required and optional; else error naming the object as a `what`."""
    if not isinstance(data, dict):
        raise error(f"a {what} must be a JSON object, got {shown(data)}")
    if unknown := sorted(map(shown, set(data).difference(required, optional))):
        raise error(f"unknown {what} key(s): {', '.join(unknown)}")
    for key in required:
        if key not in data:
            raise error(f"missing required {what} key {key!r}")
    return data


def read_number(data: dict, key: str, what: str, default=0.0, kind=float, error=ValidationError):
    """data[key] (default when absent) as a kind: a JSON number in float
    range, an int for kind int; anything else (a string or a boolean too) is
    an error naming the key of the `what`."""
    value = data.get(key, default)
    if (isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return kind(value)
    raise error(f"{what} {key!r} must be {'an integer' if kind is int else 'a number'} in float range, "
                f"got {shown(value)}")


def check_level(n: int, low: int = 0, name: str = "n", error=ValidationError) -> int:
    """n, if low <= n <= N_MAX (a level of the validity domain); else error
    naming it (no name: the message starts at "must")."""
    if not low <= n <= N_MAX:
        raise error((f"{name} " if name else "") + f"must be in [{low}, {N_MAX}], got {shown(n)}")
    return n
