"""Position-resolved spin textures <sigma_x,y,z(x)> of the eigenstates.

Two independent routes are provided and must agree pointwise:

 * texture_closed_form evaluates the analytic expressions. The raw forms
   carry e^{-x^2} H_{n-1} H_n / (2^{n-3/2} N_sigma) factors that overflow for
   large n; they are algebraically identical to products of orthonormal
   oscillator functions, which is how they are computed:

       <sigma_z(x)> = Cz  sqrt(n) phi_{n-1} phi_n / N_n
       <sigma_y(x)> = Cy  sqrt(n) phi_{n-1} phi_n / N_n
       <sigma_x(x)> = [ (Dx/4) phi_{n-1}^2 - n (g^2+Gamma^2) phi_n^2 ] / N_n

   with the real coefficients (theta, R from the block quantities)

       Cz = g d_Ww - Gamma d_kg + 2 eta R (g cos(theta/2) - Gamma sin(theta/2))
       Cy = Gamma d_Ww + g d_kg + 2 eta R (Gamma cos(theta/2) + g sin(theta/2))
       Dx = d_Ww^2 + d_kg^2 + 4R^2
            + 4 eta R (d_Ww cos(theta/2) + d_kg sin(theta/2))

 * texture_from_wavefunctions builds the spin components of the wave function
   on the sigma_x and sigma_z bases from the complex coefficients and
   contracts |psi|^2 differences directly.

The n = 0 state has <sigma_z> = <sigma_y> = 0 and <sigma_x> = -e^{-x^2}/sqrt(pi).

Nodes: <sigma_z> and <sigma_y> vanish exactly at the union of the roots of
H_{n-1} and H_n (2n-1 points, independent of all model parameters), while
<sigma_x> has 2n parameter-dependent zeros, located where the stable ratio
phi_n/phi_{n-1} equals +-|C_up|/|C_down|; oscillator.ratio_roots solves both
level sets at once as eigenvalues of one stacked pair of Jacobi matrices,
for a batch of points (one row per point). The order of all 4n-1 nodes is
the same at every point (node_order): only the winding integral, nodes and
verify's node check solve the positions, and check them against that order.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import NodeCountError, ValidationError
from .oscillator import domain_cutoff, hermite_roots, phi_pair, phi_ratio, ratio_roots
from .params import LevelIndex, ModelParams, ParamGrid, modulus
from .spectrum import BlockQuantities, block_quantities, eigen_solution

__all__ = [
    "TextureCoefficients",
    "SpinTexture",
    "NodeSet",
    "standard_grid",
    "texture_coefficients",
    "texture_closed_form",
    "texture_from_wavefunctions",
    "wavefunction_components",
    "nodes",
]

STANDARD_POINTS = 801


def coefficient_ratio(c_up, c_down):
    """rho = |C_up|/|C_down|, inf where C_down = 0 (arrays give arrays)."""
    if not isinstance(c_down, np.ndarray):
        return abs(c_up) / abs(c_down) if c_down else math.inf
    nonzero = c_down != 0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(nonzero, modulus(c_up) / np.where(nonzero, modulus(c_down), 1.0), math.inf)


@dataclass(frozen=True)
class TextureCoefficients:
    """Closed-form amplitudes in front of the Hermite factors."""

    c_z: float
    c_y: float
    d_x: float


@dataclass(frozen=True)
class SpinTexture:
    """Sampled spin-expectation profiles on an ordered grid."""

    grid: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    coeffs: TextureCoefficients | None  # None for the n = 0 state

    def component(self, name: str) -> np.ndarray:
        if name not in ("x", "y", "z"):
            raise ValidationError(f"unknown spin component {name!r}")
        return getattr(self, "s" + name)


@dataclass(frozen=True)
class NodeSet:
    """Finite zero crossings of one spin component and the section signs.

    signs[i] is the sign of the component on the open interval between
    positions[i-1] and positions[i] (the unbounded end sections included), so
    len(signs) == len(positions) + 1.
    """

    component: str
    positions: np.ndarray
    signs: tuple[int, ...]

    def sign_at(self, x: float) -> int:
        """Sign of the component at x (x must not be a node position)."""
        return self.signs[bisect_left(self.positions, x)]


def standard_grid(n: int, points: int = STANDARD_POINTS) -> np.ndarray:
    """Uniform symmetric grid on [-L(n), L(n)]; odd count keeps x = 0 sampled."""
    L = domain_cutoff(n)
    return np.linspace(-L, L, points)


def texture_coefficients(params: ModelParams | ParamGrid, level: LevelIndex,
                         block: BlockQuantities | None = None) -> TextureCoefficients:
    """Closed-form coefficients Cz, Cy, Dx of state (n >= 1, eta), read off
    block n (evaluated here unless the caller passes it); arrays over a
    ParamGrid."""
    if level.n < 1:
        raise ValidationError("texture coefficients are defined for n >= 1")
    bq = block_quantities(params, level.n) if block is None else block
    eigen_solution(params, level, bq)  # propagates exceptional/degenerate
    return branch_coefficients(params, level.eta, bq)


def branch_coefficients(params: ModelParams | ParamGrid, eta: int,
                        bq: BlockQuantities) -> TextureCoefficients:
    """Cz, Cy, Dx of branch eta of block bq with no checks (arrays over a grid)."""
    c = params.composites()
    g, Gamma = params.g, params.Gamma
    d_Ww, d_kg = c.d_Omega_omega, c.d_kappa_gamma
    rc = eta * bq.r_cos
    rs = eta * bq.r_sin
    return TextureCoefficients(
        c_z=g * d_Ww - Gamma * d_kg + 2.0 * (g * rc - Gamma * rs),
        c_y=Gamma * d_Ww + g * d_kg + 2.0 * (Gamma * rc + g * rs),
        d_x=d_Ww * d_Ww + d_kg * d_kg + 4.0 * bq.R * bq.R + 4.0 * (d_Ww * rc + d_kg * rs),
    )


def _vacuum_texture(grid: np.ndarray) -> SpinTexture:
    zeros = np.zeros_like(grid)
    sx = -np.exp(-grid * grid) / math.sqrt(math.pi)
    return SpinTexture(grid=grid, sx=sx, sy=zeros.copy(), sz=zeros, coeffs=None)


def texture_closed_form(params: ModelParams | ParamGrid, level: LevelIndex, grid=None,
                        block: BlockQuantities | None = None) -> SpinTexture:
    """Spin texture from the analytic coefficient forms, read off block n
    (evaluated here unless the caller passes it).

    Over a ParamGrid of shape (points, 1), the profiles have one row per
    point: on the one grid, or on each row of a 2-D grid.
    """
    grid = standard_grid(level.n) if grid is None else np.asarray(grid, dtype=float)
    if level.n == 0:
        return _vacuum_texture(grid)
    bq = block_quantities(params, level.n) if block is None else block
    sol = eigen_solution(params, level, bq)
    coeffs = branch_coefficients(params, level.eta, bq)
    p_lo, p_hi = phi_pair(level.n, grid)
    cross = math.sqrt(level.n) * p_lo * p_hi / sol.norm
    g, Gamma = params.g, params.Gamma
    sx = (0.25 * coeffs.d_x * p_lo * p_lo
          - level.n * (g * g + Gamma * Gamma) * p_hi * p_hi) / sol.norm
    return SpinTexture(
        grid=grid,
        sx=sx,
        sy=coeffs.c_y * cross,
        sz=coeffs.c_z * cross,
        coeffs=coeffs,
    )


def wavefunction_components(params: ModelParams | ParamGrid, level: LevelIndex, grid,
                            block: BlockQuantities | None = None):
    """Position wave functions (psi+^x, psi-^x, psi+^z, psi-^z) on the grid,
    read off block n (evaluated here unless the caller passes it; rows as in
    texture_closed_form).

    sigma_x basis:  psi+-^x = C_{up,down} phi_{n-1,n}(x) / sqrt(N_n)
    sigma_z basis:  psi+-^z = (C_up phi_{n-1} +- C_down phi_n) / sqrt(2 N_n)
    """
    if level.n < 1:
        raise ValidationError("wavefunction components are defined for n >= 1")
    grid = np.asarray(grid, dtype=float)
    sol = eigen_solution(params, level, block)
    p_lo, p_hi = phi_pair(level.n, grid)
    rn = np.sqrt(sol.norm)
    up_x = sol.c_up * p_lo / rn
    down_x = sol.c_down * p_hi / rn
    up_z = (up_x + down_x) / math.sqrt(2.0)
    down_z = (up_x - down_x) / math.sqrt(2.0)
    return up_x, down_x, up_z, down_z


def texture_from_wavefunctions(params: ModelParams | ParamGrid, level: LevelIndex, grid=None,
                               block: BlockQuantities | None = None) -> SpinTexture:
    """Spin texture contracted from the position wave functions (oracle route
    for the closed forms; also carries the coefficients for convenience),
    read off block n (evaluated here unless the caller passes it)."""
    grid = standard_grid(level.n) if grid is None else np.asarray(grid, dtype=float)
    if level.n == 0:
        return _vacuum_texture(grid)
    up_x, down_x, up_z, down_z = wavefunction_components(params, level, grid, block)
    sx = np.abs(up_x) ** 2 - np.abs(down_x) ** 2
    sz = np.abs(up_z) ** 2 - np.abs(down_z) ** 2
    sy = (1j * (np.conj(down_z) * up_z - np.conj(up_z) * down_z)).real
    return SpinTexture(
        grid=grid,
        sx=sx,
        sy=sy,
        sz=sz,
        coeffs=texture_coefficients(params, level, block),
    )


def _alternating(first, count: int) -> np.ndarray:
    """count section signs first, -first, first, ...; an array first gives
    one row per element."""
    return np.multiply.outer(first, (-1) ** np.arange(count))


def zy_node_arrays(n: int, amp) -> tuple[np.ndarray, np.ndarray]:
    """sigma_z / sigma_y nodes of level n: the union of the roots of H_{n-1}
    and H_n (shared by every point) and the section signs for the amplitude
    Cz or Cy (one row per element when amp is an array)."""
    positions = np.sort(np.concatenate((hermite_roots(n - 1) if n > 1 else np.empty(0),
                                        hermite_roots(n))))
    # phi_{n-1} phi_n < 0 as x -> -inf; each union root is simple, so the
    # section signs alternate from -sign(amp)
    return positions, _alternating(-np.sign(amp).astype(int), len(positions) + 1)


@functools.lru_cache(maxsize=None)
def node_order(n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(positions, signs) of the sigma_z / sigma_y and the sigma_x nodes of
    level n at every point with 0 < rho < inf: their ranks in the order the
    interlacing theorem fixes (topology), the sigma_x nodes at the even ones,
    and one row of sigma_z / sigma_y signs per amplitude sign -1, 0, +1."""
    ranks, amp_signs = np.arange(4 * n - 1), np.array([-1, 0, 1])
    return (ranks[1::2], _alternating(-amp_signs, 2 * n)), (ranks[0::2], _alternating(-1, 2 * n + 1))


def check_ratios(rho: np.ndarray) -> None:
    """NodeCountError, with the index of the first offender, unless each
    ratio of the 1-D batch lies in (0, inf), where sigma_x has 2n nodes."""
    usable = (rho > 0.0) & (rho < math.inf)
    if not usable.all():
        i = int(np.argmin(usable))
        raise NodeCountError(f"coefficient ratio {float(rho[i])!r} admits no sigma_x nodes", index=i)


def x_node_arrays(n: int, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2n sigma_x nodes of level n for a 1-D batch of coefficient ratios
    rho = |C_up|/|C_down|: positions of shape (batch, 2n), solving phi_n /
    phi_{n-1} = +-rho, and the section signs shared by all. Their order
    (node_order) and the texture's sign between them are checked; a failure
    raises NodeCountError with the index of the first failing element."""
    check_ratios(rho)
    # the ratio rises from -inf to +inf on every branch, passing -rho before
    # +rho: the k-th solutions of the two interleave
    positions = ratio_roots(n, np.stack((-rho, rho), axis=-1)).swapaxes(-1, -2).reshape(len(rho), 2 * n)
    # node k lies strictly inside gap k of the sorted roots of H_{n-1} and H_n
    roots, gap = zy_node_arrays(n, 1.0)[0], np.arange(2 * n)
    interlaced = ((np.searchsorted(roots, positions, side="left") == gap)
                  & (np.searchsorted(roots, positions, side="right") == gap)).all(axis=-1)
    if not interlaced.all():
        raise NodeCountError(f"sigma_x node refinement for n={n} left a node outside its interval between "
                             "the roots of H_n and H_(n-1)", index=int(np.argmin(interlaced)))
    # sections alternate, starting and ending at the asymptotic sign -1;
    # verify against the sampled sign of the texture at the midpoints
    signs = _alternating(-1, 2 * n + 1)
    mids = 0.5 * (positions[:, 1:] + positions[:, :-1])
    r = phi_ratio(n, mids)
    observed = np.sign(rho[:, None] - np.abs(r))  # sign of sigma_x up to a positive prefactor
    wrong = observed != signs[1:-1]
    if wrong.any():
        i = int(np.argmax(wrong.any(axis=-1)))
        raise NodeCountError(
            f"sigma_x section signs for n={n} do not alternate at x={mids[i][wrong[i]][0]}", index=i,
        )
    return positions, signs


def nodes(params: ModelParams, level: LevelIndex, component: str,
          block: BlockQuantities | None = None) -> NodeSet:
    """Finite nodes of one spin component with section signs attached, read
    off block n (evaluated here unless the caller passes it).

    sigma_z and sigma_y share the 2n-1 parameter-independent Hermite-root
    nodes; sigma_x has 2n parameter-dependent nodes. A count or sign-pattern
    violation raises NodeCountError rather than returning silently wrong data.
    """
    if level.n < 1:
        raise ValidationError("nodes are defined for n >= 1")
    if component in ("z", "y"):
        coeffs = texture_coefficients(params, level, block)
        positions, signs = zy_node_arrays(level.n, coeffs.c_z if component == "z" else coeffs.c_y)
    elif component == "x":
        sol = eigen_solution(params, level, block)
        positions, signs = x_node_arrays(level.n, np.array([coefficient_ratio(sol.c_up, sol.c_down)]))
        positions = positions[0]
    else:
        raise ValidationError(f"unknown spin component {component!r}")
    return NodeSet(component=component, positions=positions, signs=tuple(signs.tolist()))
