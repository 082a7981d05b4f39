"""Exact eigen-solution of the U(1) blocks of the dissipative JC model.

Conservation of the excitation number splits the Hamiltonian into 2x2 blocks
spanned by {|n-1,up_x>, |n,down_x>}. Each block is parametrized by

    e+ = (n - 1/2) w~,      e- = (W~ - w~)/2,

and the branch root S = sqrt(e-^2 + n g~^2) = R exp(i*theta/2) with

    R = (A^2 + B^2)^(1/4),          theta = arg(A - iB) in (-pi, pi],
    A = n (g^2 - Gamma^2) + d_Ww^2/4 - d_kg^2/4,
    B = 2 n g Gamma - d_kg d_Ww / 2,

where d_Ww = Omega - omega and d_kg = kappa - gamma. The principal branch of
theta is what makes the pi -> -pi shift of the argument (and the resulting
sign reversal of S) emerge automatically when B crosses zero under A < 0.

Coefficients and energies:

    C_up = e- + eta S,   C_down = g~ sqrt(n),   E = e+ + eta S,
    Re E = (n - 1/2) omega + eta R cos(theta/2),
    Im E = -(n - 1/2) kappa + eta R sin(theta/2),

plus the isolated n = 0 state with E0 = -W~/2 and no coefficients.

block_quantities, gaps and the branch formulas are written in operator form:
given a ParamGrid instead of ModelParams they evaluate every point at once and
return arrays, bit for bit what a call per point returns (see params).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateStateError, ExceptionalPointError, ValidationError
from .params import (LevelIndex, ModelParams, ParamGrid, elementwise, maximum, minimum, quiet_overflow,
                     raise_where, where)

__all__ = [
    "BlockQuantities",
    "EigenSolution",
    "GapPair",
    "block_quantities",
    "eigen_solution",
    "gaps",
]

# |B| below this is treated as an exact zero so a signed -0.0 cannot flip the
# branch of arg(A - iB)
_SUBNORMAL_GUARD = 1e-300

# relative floor (on the block's natural squared scale) under which both A and
# B count as zero: exceptional point
_EP_RTOL = 1e-14

# relative norm floor under which the two-component parametrization of the
# eigenvector is considered collapsed
_DEGENERATE_RTOL = 1e-24

_atan2, _hypot, _sqrt, _cos, _sin = map(elementwise, (math.atan2, math.hypot, math.sqrt,
                                                       math.cos, math.sin))
_cexp = elementwise(cmath.exp, complex)
_abs2 = elementwise(lambda z: abs(z) ** 2)  # |z|^2 as Python rounds it


@dataclass(frozen=True)
class BlockQuantities:
    """Everything block n fixes: the branch split, the per-branch terms and
    the natural scales that normalise the distances to the R/GR/SI sets.

    Branch eta adds eta * r_cos to Re e+ and eta * r_sin to Im e+. The scales
    are the sums of the absolute terms of B, Cz, Cy and R^2 (+1e-300):

        scale_B  = |2n g Gamma| + |d_kg d_Ww / 2|
        scale_Cz = |g d_Ww| + |Gamma d_kg| + 2R (|g| + |Gamma|)
        scale_Cy = |Gamma d_Ww| + |g d_kg| + 2R (|g| + |Gamma|)
        scale_A  = n (g^2 + Gamma^2) + (d_Ww^2 + d_kg^2) / 4

    Over a ParamGrid every field but n is an array of the grid's shape.
    """

    n: int
    e_plus: complex
    e_minus: complex
    A: float
    B: float
    R: float
    vartheta: float
    exceptional: bool
    r_cos: float  # R cos(vartheta/2)
    r_sin: float  # R sin(vartheta/2)
    off: complex  # off-diagonal element g~ sqrt(n)
    scale_B: float
    scale_Cz: float
    scale_Cy: float
    scale_A: float

    @property
    def root(self) -> complex:
        """Branch root S = R exp(i*vartheta/2) for eta = +1."""
        return self.R * _cexp(0.5j * self.vartheta)

    def re_energy(self, eta: int) -> float:
        """Re E = (n - 1/2) omega + eta R cos(vartheta/2) of branch eta."""
        return self.e_plus.real + eta * self.r_cos

    def distances(self, c_z: float, c_y: float) -> tuple[float, float, float]:
        """Normalised distances to R (|B|, only under A < 0; inf otherwise),
        GR (|Cz|) and SI (|Cy|) for a branch with coefficients c_z, c_y."""
        d_r = where(self.A < 0.0, abs(self.B) / self.scale_B, math.inf)
        return d_r, abs(c_z) / self.scale_Cz, abs(c_y) / self.scale_Cy


@dataclass(frozen=True)
class EigenSolution:
    """Coefficients, normalization and complex energy of one eigenstate.

    For n = 0 the state is |0, down_x>: c_up and c_down are None and the
    energy is -W~/2.
    """

    level: LevelIndex
    c_up: complex | None
    c_down: complex | None
    norm: float
    energy: complex
    re_energy: float
    im_energy: float


@dataclass(frozen=True)
class GapPair:
    """Real-part gaps: delta_minus within the block, delta_plus to the
    nearest adjacent block (either branch, E0 for n' = 0)."""

    delta_minus: float
    delta_plus: float


@quiet_overflow
def block_quantities(params: ModelParams | ParamGrid, n: int) -> BlockQuantities:
    """Branch invariants and scales of block n >= 1 (see BlockQuantities).

    vartheta is the principal argument of A - iB; when both A and B vanish to
    float resolution the block is flagged exceptional (branch split singular,
    vartheta meaningless) and downstream consumers must check the flag.
    """
    if n < 1:
        raise ValidationError(f"block index n must be >= 1, got {n}")
    c = params.composites()
    d_Ww = c.d_Omega_omega
    d_kg = c.d_kappa_gamma
    g, Gamma = params.g, params.Gamma
    A = n * (g * g - Gamma * Gamma) + 0.25 * d_Ww * d_Ww - 0.25 * d_kg * d_kg
    B = 2.0 * n * g * Gamma - 0.5 * d_kg * d_Ww
    im = where(abs(B) >= _SUBNORMAL_GUARD, -B, 0.0)
    vartheta = _atan2(im, A)
    R = _sqrt(_hypot(A, B))
    scale_sq = maximum(1.0, n * (g * g + Gamma * Gamma), d_Ww * d_Ww, d_kg * d_kg)
    two_r_coupling = 2.0 * R * (abs(g) + abs(Gamma))
    return BlockQuantities(
        n=n,
        e_plus=(n - 0.5) * c.omega_t,
        e_minus=0.5 * (c.Omega_t - c.omega_t),
        A=A,
        B=B,
        R=R,
        vartheta=vartheta,
        exceptional=(abs(A) < _EP_RTOL * scale_sq) & (abs(B) < _EP_RTOL * scale_sq),
        r_cos=R * _cos(0.5 * vartheta),
        r_sin=R * _sin(0.5 * vartheta),
        off=c.g_t * math.sqrt(n),
        scale_B=abs(2.0 * n * g * Gamma) + abs(0.5 * d_kg * d_Ww) + 1e-300,
        scale_Cz=abs(g * d_Ww) + abs(Gamma * d_kg) + two_r_coupling + 1e-300,
        scale_Cy=abs(Gamma * d_Ww) + abs(g * d_kg) + two_r_coupling + 1e-300,
        scale_A=abs(n * (g * g + Gamma * Gamma)) + 0.25 * (d_Ww * d_Ww + d_kg * d_kg) + 1e-300,
    )


def eigen_solution(params: ModelParams | ParamGrid, level: LevelIndex,
                   block: BlockQuantities | None = None) -> EigenSolution:
    """Exact eigenstate of the given level, read off its block (evaluated
    here unless the caller passes block n already).

    Raises ExceptionalPointError when the block's branch split is singular and
    DegenerateStateError when both coefficients collapse to zero (only
    possible with g~ = 0); over a ParamGrid, for the first such point, with
    its index.
    """
    if level.n == 0:
        energy = -0.5 * params.composites().Omega_t
        return EigenSolution(
            level=level,
            c_up=None,
            c_down=None,
            norm=1.0,
            energy=energy,
            re_energy=energy.real,
            im_energy=energy.imag,
        )
    bq = block_quantities(params, level.n) if block is None else block
    raise_where(bq.exceptional, ExceptionalPointError,
                f"block n={level.n} is at an exceptional point", A=bq.A, B=bq.B)
    sol, degenerate = branch_solution(params, level, bq)
    raise_where(degenerate, DegenerateStateError,
                f"state (n={level.n}, eta={level.eta:+d}) has vanishing coefficients")
    return sol


def branch_solution(params: ModelParams | ParamGrid, level: LevelIndex,
                    bq: BlockQuantities) -> tuple[EigenSolution, bool]:
    """The state (n >= 1, eta) of block bq with no checks, and whether its
    coefficients collapse (degenerate). Over a grid both are arrays, and
    exceptional or degenerate points hold meaningless values."""
    root = level.eta * bq.root
    c_up = bq.e_minus + root
    norm = _abs2(c_up) + _abs2(bq.off)
    scale = _abs2(bq.e_minus) + level.n * _abs2(params.composites().g_t)
    sol = EigenSolution(
        level=level,
        c_up=c_up,
        c_down=bq.off,
        norm=norm,
        energy=bq.e_plus + root,
        re_energy=bq.re_energy(level.eta),
        im_energy=-(level.n - 0.5) * params.kappa + level.eta * bq.r_sin,
    )
    return sol, norm <= _DEGENERATE_RTOL * maximum(scale, _SUBNORMAL_GUARD)


def _re_energies(params: ModelParams | ParamGrid, n: int,
                 block: BlockQuantities | None = None) -> tuple[float, ...]:
    """Real parts of both branches of block n (single value for n = 0).

    Exceptional blocks are fine here: R = 0 makes both branches collapse onto
    Re e+ regardless of vartheta.
    """
    if n == 0:
        return (eigen_solution(params, LevelIndex(0)).re_energy,)
    bq = block_quantities(params, n) if block is None else block
    return (bq.re_energy(1), bq.re_energy(-1))


def gaps(params: ModelParams | ParamGrid, n: int, block: BlockQuantities | None = None) -> GapPair:
    """Intra-block gap delta_minus = |Re E(n,+) - Re E(n,-)| and the smallest
    real-part distance delta_plus to the blocks n-1 and n+1 (both branches).
    Block n is evaluated here unless the caller passes it."""
    if n < 1:
        raise ValidationError(f"block index n must be >= 1, got {n}")
    own = _re_energies(params, n, block)
    delta_minus = abs(own[0] - own[1])
    neighbors = _re_energies(params, n - 1) + _re_energies(params, n + 1)
    delta_plus = minimum(*(abs(a - b) for a in own for b in neighbors))
    return GapPair(delta_minus=delta_minus, delta_plus=delta_plus)
