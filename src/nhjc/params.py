"""Model parameters of the dissipative Jaynes-Cummings Hamiltonian

    H = w~ a+a + W~/2 sx + g~ (s- a+ + s+ a),

with complex frequencies built from six real inputs,

    w~ = omega - i*kappa,   W~ = Omega - i*gamma,   g~ = g - i*Gamma.

Conventions: Omega is the customary unit of energy (set Omega = 1); kappa,
gamma, Gamma are the cavity, qubit and coupling decay rates. All records are
frozen dataclasses, safe to share across workers.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import NegativeRateWarning, ValidationError

__all__ = [
    "ModelParams",
    "ComplexComposites",
    "LevelIndex",
    "coupling_scale",
    "params_from_dict",
    "load_params",
]

RATE_NAMES = ("kappa", "gamma", "Gamma")
SWEEPABLE = ("omega", "g", "kappa", "gamma", "Gamma")


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
        """Pure function of the six reals; recomputation is bit-identical."""
        return ComplexComposites(
            omega_t=complex(self.omega, -self.kappa),
            Omega_t=complex(self.Omega, -self.gamma),
            g_t=complex(self.g, -self.Gamma),
            d_Omega_omega=self.Omega - self.omega,
            d_kappa_gamma=self.kappa - self.gamma,
        )

    def with_value(self, name: str, value: float) -> "ModelParams":
        """Copy with one named parameter replaced (used by sweeps/boundaries)."""
        if name not in ("omega", "Omega", "g") + RATE_NAMES:
            raise ValidationError(f"unknown parameter {name!r}")
        return replace(self, **{name: value})


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
        raise ValidationError(f"unknown parameter key(s): {', '.join(unknown)}")
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
    """data[key] (0 when absent) as a float; anything non-numeric is a ValidationError."""
    value = data.get(key, 0.0)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"parameter {key!r} must be a number, got {value!r}") from None


def load_params(path: str | Path) -> ModelParams:
    """Read a parameter JSON file (see params_from_dict for the schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return params_from_dict(data)
