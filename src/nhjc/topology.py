"""Spin-winding topology: winding numbers, directions, and plane tilting.

The winding number of the planar vector (<sigma_a(x)>, <sigma_b(x)>) over the
real line is computed two independent ways by Windings, for a batch of points
of one level (the sweep, its spot check, verify and winding_report all go
through it):

 * integrals: accumulated angle by phase unwrapping over the texture sampled
   on each point's winding grid, refined around the solved sigma_x nodes
   (each step folded into (-pi, pi)); equivalent to the defining integral
   because the eigenstate windings have no returning knots. The raw
   total/2pi is rounded to an integer, its distance reported as residual.

 * node_sums: the algebraic sign-sum over the nodes of either component;
   exact integer arithmetic, no sampling, both forms (over the nodes of a
   with signs of b, and vice versa) evaluated and required to agree. End
   signs at infinity are analytic limits: sgn<sigma_{z,y}> -> 0 while
   sgn<sigma_x> -> -1 (the -H_n^2 term dominates in both tails). The sum
   reads only the order of the nodes: sigma_z,y vanish at the roots of
   H_{n-1} and H_n, sigma_x where phi_n/phi_{n-1} = +-rho, and that ratio
   rises from -inf to +inf between consecutive roots of H_{n-1} (Christoffel-
   Darboux and the interlacing of the zeros of consecutive orthogonal
   polynomials: Szego, Orthogonal Polynomials, 3.3), meeting -rho, a root of
   H_n, then +rho. For every 0 < rho < inf the order is thus fixed by n
   (texture.node_order), with no solve. Positions are solved only for
   integrals, texture.nodes and verify's node check, checked against it.

Directions: the winding is counter-clockwise iff the plane's coefficient
(Cz for zx, Cy for yx) is negative, so the signed winding is

    n_w = -sign(C) * n.

The tilting of the winding plane out of zx is theta_t = arctan(Cy/Cz), the
same at every position x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AntiWindingError,
    GridTooCoarseError,
    NodeCountError,
    OnBoundaryError,
    UndefinedTiltError,
    ValidationError,
)
from .oscillator import ratio_roots
from .params import (LevelIndex, ModelParams, ParamGrid, batch_index, check_level, chunks, elementwise, modulus,
                     quotient, raise_where, where)
from .spectrum import BOUNDARY_RTOL, block_quantities
from .texture import (
    STANDARD_POINTS,
    SpinTexture,
    TextureCoefficients,
    check_ratios,
    node_order,
    root_union,
    standard_grid,
    texture_closed_form,
    texture_coefficients,
    x_node_arrays,
)

__all__ = [
    "PLANES",
    "TiltingAngle",
    "Windings",
    "winding_direction",
    "winding_report",
    "tilting_angle",
]

# plane -> (alpha, beta) component names; the winding vector is
# (<sigma_alpha>, <sigma_beta>) with the angle measured from alpha toward beta
PLANES = {"zx": ("z", "x"), "yx": ("y", "x")}
# sgn<sigma_alpha> and sgn<sigma_x> at (-inf, +inf), per the leading Hermite behavior
_END_SIGNS = ((0, 0), (-1, -1))

_AMPLITUDE_FLOOR = 1e-280
_MAX_STEP = 0.5 * math.pi


@dataclass(frozen=True)
class TiltingAngle:
    theta_t: float  # in [-pi/2, pi/2]
    ratio: float    # Cy/Cz, +-inf when Cz = 0


def _plane_components(plane: str) -> tuple[str, str]:
    try:
        return PLANES[plane]
    except KeyError:
        raise ValidationError(f"unknown winding plane {plane!r}; use one of {sorted(PLANES)}") from None


def _fold(step):
    """step folded into [-pi, pi] (elementwise; halves round to even, as round() does)."""
    return step - 2.0 * math.pi * np.round(step / (2.0 * math.pi))


def _alive(x_comp: np.ndarray, y_comp: np.ndarray) -> np.ndarray:
    """hypot(x_comp, y_comp) > _AMPLITUDE_FLOOR, elementwise.

    hypot lies between max(|x|, |y|) and sqrt(2) times it, so it is evaluated
    only where that does not settle the test: a largest magnitude in
    (0.7 floor, floor], or nan (hypot(inf, nan) is inf). Squares would
    underflow at this floor.
    """
    big = np.maximum(np.abs(x_comp), np.abs(y_comp))
    alive = big > _AMPLITUDE_FLOOR
    unsure = ~(alive | (big <= 0.7 * _AMPLITUDE_FLOOR))
    alive[unsure] = np.hypot(x_comp[unsure], y_comp[unsure]) > _AMPLITUDE_FLOOR
    return alive


def _live_angles(texture: SpinTexture, plane: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angles of the winding vector in the plane along each row of a texture
    (a 1-D texture is one row) and the first and last live point of each row."""
    alpha, beta = _plane_components(plane)
    x_comp, y_comp = (np.atleast_2d(texture.component(c)) for c in (alpha, beta))
    alive = _alive(x_comp, y_comp)
    raise_where(np.count_nonzero(alive, axis=-1) < 2, GridTooCoarseError,
                "winding vector vanishes on the whole grid")
    first = np.argmax(alive, axis=-1)
    last = alive.shape[-1] - 1 - np.argmax(alive[:, ::-1], axis=-1)
    return np.arctan2(y_comp, x_comp), first, last


def integral_windings(texture: SpinTexture, plane: str) -> tuple[np.ndarray, np.ndarray]:
    """Signed windings by phase unwrapping of the rows of a texture (a 1-D
    texture is one row), each sampled on its own grid row, and their
    residuals |raw - round(raw)|. An interior angle step of magnitude >= pi/2
    marks a grid too coarse: GridTooCoarseError with the index of its row.

    Both tails converge to the exact direction (0, -1), angle -pi/2; closing
    the walk onto that limit removes the truncation bias (the winding between
    the cutoff and infinity is below pi, so folding the closing increments is
    safe: at most the outermost sigma_x node lies beyond the grid).
    """
    angles, first, last = _live_angles(texture, plane)
    steps = _fold(np.diff(angles))
    inside = (first[:, None] <= np.arange(steps.shape[-1])) & (np.arange(steps.shape[-1]) < last[:, None])
    worst = np.max(np.abs(steps), axis=-1, where=inside, initial=0.0)
    coarse = worst >= _MAX_STEP
    if coarse.any():
        i = int(np.argmax(coarse))
        raise GridTooCoarseError(
            f"angle step {worst[i]:.3f} rad >= pi/2 in plane {plane} ({angles.shape[-1]} grid points)",
            index=i,
        )
    # each row's own slice, so the pairwise sum adds what a 1-D call adds
    sums = np.array([np.sum(row[lo:hi]) for row, lo, hi in zip(steps, first.tolist(), last.tolist())])
    rows = np.arange(len(first))
    total = _fold(angles[rows, first] + 0.5 * math.pi) + sums + _fold(-0.5 * math.pi - angles[rows, last])
    raw = total / (2.0 * math.pi)
    signed = np.rint(raw)
    return signed.astype(int), np.abs(raw - signed)


def _sign_sum(outer: str, outer_signs: np.ndarray, other_at_nodes: np.ndarray,
              ends_other: tuple[int, int]) -> np.ndarray:
    """Quarter-sums over the sections of the outer component, given the
    other component's signs at the outer nodes (one row per point; a single
    row is shared by all)."""
    bad = np.flatnonzero((outer_signs[:, :-1] != -outer_signs[:, 1:]).any(axis=-1))
    if bad.size:
        raise AntiWindingError(
            f"section signs of sigma_{outer} do not alternate; "
            "the sign-sum formula assumes no anti-winding nodes or returning knots",
            index=int(bad[0]),
        )
    rows = len(other_at_nodes)
    signs_at = np.concatenate((np.full((rows, 1), ends_other[0]), other_at_nodes,
                               np.full((rows, 1), ends_other[1])), axis=-1)
    return ((signs_at[:, 1:] - signs_at[:, :-1]) * outer_signs).sum(axis=-1)  # 1/eta == eta for +-1


def node_sum_windings(plane: str, alpha, beta) -> np.ndarray:
    """Signed node-sum windings of a batch of points in the plane. alpha and
    beta are the (positions, signs) of the two components' nodes: positions
    shared by the batch, signs one row per point (2-D) or shared (1-D). A
    failed check raises AntiWindingError with the index of the first failing
    point."""
    a, b = plane[0], plane[1]
    ends_alpha, ends_beta = _END_SIGNS
    (a_pos, a_signs), (b_pos, b_signs) = ((pos, np.atleast_2d(signs)) for pos, signs in (alpha, beta))
    # a component's sign at a node of the other is that of its section
    # number bisect_left(positions, node)
    a_at_b = a_signs[:, np.searchsorted(a_pos, b_pos)]
    b_at_a = b_signs[:, np.searchsorted(b_pos, a_pos)]
    quarters_a = -_sign_sum(b, b_signs, a_at_b, ends_alpha)
    quarters_b = _sign_sum(a, a_signs, b_at_a, ends_beta)
    bad = np.flatnonzero((quarters_a % 4 != 0) | (quarters_a != quarters_b))
    if bad.size:
        i = bad[0]
        raise AntiWindingError(
            f"inconsistent node sums in plane {plane}: "
            f"{quarters_a[i]}/4 (over sigma_{b} nodes) vs "
            f"{quarters_b[i]}/4 (over sigma_{a} nodes)",
            index=int(i),
        )
    return quarters_a // 4


def _coefficient(coeffs: TextureCoefficients, plane: str):
    """The plane's coefficient: Cz for zx, Cy for yx."""
    alpha, _ = _plane_components(plane)
    return coeffs.c_z if alpha == "z" else coeffs.c_y


def winding_direction(coeffs: TextureCoefficients, plane: str) -> int:
    """Direction sign s_w of the winding in the plane: +1 clockwise,
    -1 counter-clockwise (s_w = sign of the plane's coefficient; arrays of
    coefficients give an array)."""
    value = _coefficient(coeffs, plane)
    raise_where(value == 0.0, OnBoundaryError,
                f"C{plane[0]} = 0: winding direction in {plane} undefined on a reversal boundary")
    return where(value > 0.0, 1, -1)


# geometric offsets w0 q^k around each node (w0 = 1e-13, q = 4), out to about 1.76
_SHELLS = 1e-13 * 4.0 ** np.arange(0, 23)
# |x| bound of the validity domain: phi_0 underflows to 0 past |x| ~ 38.6
_DOMAIN = 40.0


def winding_grids(n: int, x_nodes: np.ndarray) -> np.ndarray:
    """The integration grid for phase unwrapping of each row of sigma_x nodes
    (shape (cases, 2n)) at level n: one increasing row per row of nodes, all
    of one width. A grid is the standard one plus geometric shells around
    every node of both families, clipped to |x| <= 40.

    The winding loop passes close to the origin wherever a sigma_x node sits
    near a Hermite root (which happens whenever |C_up|/|C_down| is far from
    1); near such a passage the angle varies like arctan((x-x*)/w) with an
    arbitrarily small w. Points at geometric offsets x* +- w0 q^k bound the
    ladder steps by arctan(sqrt(q)) - arctan(1/sqrt(q)) ~ 0.64 rad at q = 4
    and the center crossing by 2 arctan(w0/w), under pi/2 for any squeeze
    the boundary margins admit (w0 = 1e-13). The clip is exact: phi_0, and
    with it every phi_k of the recurrence, is exactly 0 past |x| ~ 38.6, so
    the clipped points are dead vectors the unwrapping skips, and the
    analytic end closure covers the tail beyond the last live point.
    """
    roots = root_union(n)
    centers = np.concatenate((np.broadcast_to(roots, (len(x_nodes), roots.size)), x_nodes), axis=-1)
    local = _SHELLS * np.maximum(1.0, np.abs(centers))[..., None]
    shells = np.concatenate((centers[..., None] + local, centers[..., None] - local), axis=-1)
    standard = np.broadcast_to(standard_grid(n), (len(x_nodes), STANDARD_POINTS))
    grids = np.concatenate((standard, np.clip(shells, -_DOMAIN, _DOMAIN).reshape(len(x_nodes), -1)), axis=-1)
    grids.sort(axis=-1)
    return grids


class Windings:
    """The windings of one level (n >= 1, eta) at a batch of points by both
    routes: grid holds one row per point (shape (points, 1), as
    texture_closed_form takes it).

    Construction checks the states (texture_coefficients, unless the caller
    passes checked coefficients) and that each rho = |C_up|/|C_down| admits
    sigma_x nodes; x_nodes is solved on first read, integrals in chunks
    (params.chunks). An error carries the index of its point."""

    def __init__(self, grid: ParamGrid, level: LevelIndex, coeffs: TextureCoefficients | None = None):
        self.grid, self.level, block = grid, level, block_quantities(grid, level.n)
        self.coeffs = texture_coefficients(grid, level) if coeffs is None else coeffs
        self.rho = quotient(modulus(block.e_minus + level.eta * block.root), modulus(block.off)).ravel()
        check_ratios(self.rho)

    @cached_property
    def x_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The solved sigma_x nodes of each point (x_node_arrays)."""
        return x_node_arrays(self.level.n, self.rho)

    def node_sums(self, plane: str) -> np.ndarray:
        """The signed node-sum windings in the plane, one per point: with one
        node order for all, once per sign -1, 0, +1 of the coefficient."""
        sign = np.sign(_coefficient(self.coeffs, plane).ravel())
        return node_sum_windings(plane, *node_order(self.level.n))[sign.astype(int) + 1]

    def integrals(self, planes) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The signed integral windings and residuals in each plane, one per
        point, from the texture on each point's grid of winding_grids. Where
        the node solve or the unwrapping fails, or an integral disagrees with
        its node sum, a point whose loop is not resolved raises (_resolved)."""
        try:
            found = self._integrals(planes)
        except (NodeCountError, GridTooCoarseError) as exc:
            self._resolved([] if exc.index is None else [exc.index], planes)
            raise
        for plane, (signed, _) in found.items():
            self._resolved(np.flatnonzero(signed != self.node_sums(plane)).tolist(), planes)
        return found

    def _resolved(self, points, planes) -> None:
        """GridTooCoarseError for the first of the points with a sigma_x node
        closer to its nearest root of H_(n-1) or H_n than the innermost shell
        about that root (_SHELLS[0] max(1, |root|)), or else past the
        |x| <= _DOMAIN end of the grids with a live end angle +-pi/2 to the
        float, where the end closure cannot tell which way the loop turns: the
        loop the node makes through the origin falls between the grid points,
        on the root's float or off the grid."""
        n, roots = self.level.n, root_union(self.level.n)
        for i in points:
            nodes = ratio_roots(n, np.array([-self.rho[i], self.rho[i]])).ravel()
            near = roots[np.abs(nodes[:, None] - roots).argmin(axis=-1)]
            distance, shell = np.abs(nodes - near), _SHELLS[0] * np.maximum(1.0, np.abs(near))
            if (distance < shell).any():
                k = int(np.argmin(distance / shell))
                raise GridTooCoarseError(
                    f"sigma_x node {distance[k]:.3g} from the Hermite root {float(near[k])!r}, inside the innermost "
                    f"winding shell {shell[k]:.3g}: its loop is not resolved (rho={float(self.rho[i])!r}, n={n})",
                    index=i)
            outer = float(nodes[np.argmax(np.abs(nodes))])
            if abs(outer) <= _DOMAIN:
                continue
            tex = texture_closed_form(self.grid.take([i]), self.level, winding_grids(n, nodes[None]))
            ends = [angles[0, [first[0], last[0]]] for angles, first, last in (_live_angles(tex, p) for p in planes)]
            if (np.abs(ends) == 0.5 * math.pi).any():
                raise GridTooCoarseError(f"sigma_x node {outer!r} lies past the |x| <= {_DOMAIN:g} winding grid: "
                                         f"its loop is not resolved (rho={float(self.rho[i])!r}, n={n})", index=i)

    def _integrals(self, planes) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        n, positions = self.level.n, self.x_nodes[0]
        parts = {plane: [] for plane in planes}
        # a winding grid is the standard one plus 2 * 23 shell points around each of the 4n - 1 nodes
        for rows in chunks(len(positions), STANDARD_POINTS + 2 * _SHELLS.size * (4 * n - 1)):
            with batch_index(rows):
                grids = winding_grids(n, positions[rows])
                tex = texture_closed_form(self.grid.take(rows), self.level, grids)
                for plane, part in parts.items():
                    part.append(integral_windings(tex, plane))
            del grids, tex  # before the next chunk's are built
        return {plane: tuple(map(np.concatenate, zip(*part))) for plane, part in parts.items()}


def winding_report(params: ModelParams, level: LevelIndex, planes) -> dict[str, dict]:
    """Both winding routes plus the coefficient-sign prediction in each of the
    planes, {plane: report}, from one Windings over a grid of the one point.

    A plane whose coefficient (Cz for zx, Cy for yx) is within BOUNDARY_RTOL
    of 0 relative to its scale (BlockQuantities.distances, as the sweep's
    on_boundary) sits on a GR or SI boundary, where the direction is
    undefined: its routes, rule and agreement are null, and no integral runs.
    The Windings (and its sigma_x ratio check) is built only if a plane is
    live: at g = Gamma = 0, eta = +1, Cz = Cy = 0 and both planes are null.
    """
    check_level(level.n)
    for plane in planes:
        _plane_components(plane)
    if level.n == 0:
        return {plane: {"plane": plane, "degenerate": True, "node_sum": 0, "integral": 0,
                        "integral_residual": 0.0, "agreement": True} for plane in planes}
    grid = ParamGrid.rows([params])
    coeffs = texture_coefficients(grid, level)
    distance = dict(zip(PLANES, block_quantities(grid, level.n).distances(coeffs.c_z, coeffs.c_y)[1:]))
    live = [plane for plane in planes if distance[plane].item() >= BOUNDARY_RTOL]
    windings = Windings(grid, level, coeffs) if live else None
    integrals = windings.integrals(live) if live else {}
    reports = {}
    for plane in planes:
        report = reports[plane] = {"plane": plane, "degenerate": False, "node_sum": None, "integral": None,
                                   "integral_residual": None, "direction_rule": None, "agreement": None}
        if plane in integrals:
            (signed,), (residual,) = integrals[plane]
            node_sum, integral = int(windings.node_sums(plane)[0]), int(signed)
            predicted = -winding_direction(coeffs, plane).item() * level.n
            report.update(node_sum=node_sum, integral=integral, integral_residual=float(residual),
                          direction_rule=predicted, agreement=node_sum == integral == predicted)
    return reports


_atan = elementwise(math.atan)


def tilting_angle(coeffs: TextureCoefficients) -> TiltingAngle:
    """Tilt of the winding plane: theta_t = arctan(Cy/Cz), +-pi/2 at Cz = 0
    (arrays of coefficients give arrays)."""
    raise_where((coeffs.c_z == 0.0) & (coeffs.c_y == 0.0), UndefinedTiltError,
                "Cy = Cz = 0: tilting angle undefined")
    return tilt_of(coeffs.c_y, coeffs.c_z)


def tilt_of(c_y, c_z) -> TiltingAngle:
    """theta_t and Cy/Cz with no check (arrays over a grid; Cy = Cz = 0 gives
    pi/2 there). arctan(+-inf) is exactly +-pi/2 in floats."""
    ratio = quotient(c_y, c_z)
    return TiltingAngle(theta_t=_atan(ratio), ratio=ratio)
