"""Parameter-sweep engine: observables over 1D/2D/3D grids plus boundary overlays.

A sweep walks a rectangular grid of one to three model parameters (row-major,
first axis slowest) and, for every grid point and requested level, evaluates a
subset of the observables

    thetaT      tilting angle of the winding plane
    deltaMinus  intra-block real-energy gap
    deltaPlus   nearest adjacent-block real-energy gap
    imE         imaginary part of the eigenenergy
    nWzx, nWyx  signed winding numbers (node-sum fast path)
    CtZ, CtY    closed-form texture coefficients

Each level is evaluated over the whole grid at once, in blocks of 1024
points: block_quantities takes the grid's parameter arrays (a ParamGrid), so
a level costs one kernel call for block n plus two for the neighbouring
blocks n-1 and n+1 that deltaPlus needs. Exceptional, degenerate, n = 0 and
on_boundary points are masks within the same arrays. The rows are bit for
bit what eigen_solution, texture_coefficients, gaps, tilting_angle, nodes and
winding_node_sum give point by point.

Winding numbers use the exact-integer node-sum route, with the sigma_x nodes
of all points of a level from one ratio_roots call; a deterministic 1%
subsample is re-checked with the phase-unwrapping integral and any mismatch
aborts the sweep naming the offending grid point. Any other error raised
while a level is evaluated names the failing grid point, n and eta. Points
within 1e-9 (relative) of a reversal/gapped-reversal/super-invariant boundary
are flagged on_boundary and their direction-dependent observables are left as
nan, since the winding direction is genuinely undefined there. The distances
and their normalisers are those of spectrum.BlockQuantities, which verify's
draw margins use too.

Output is a flat table (one row per grid point per level, levels innermost)
rendered to CSV a column at a time with 17-significant-digit floats and 0/1
integer flags, so identical specs reproduce byte-identical files. Boundary
overlays are written as sibling curves sampled on the same axes: each
family is solved over the grid of the sampled axes at once, one call per
level (boundaries._solve).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boundaries import SOLVABLE, _solve
from .errors import NhjcError, SweepConsistencyError, SweepSpecError
from .params import N_MAX, SWEEPABLE, LevelIndex, ModelParams, ParamGrid, minimum, params_from_dict
from .spectrum import block_quantities, branch_solution, eigen_solution, gaps
from .texture import (
    branch_coefficients,
    coefficient_ratio,
    nodes,
    texture_closed_form,
    x_node_arrays,
    zy_node_arrays,
)
from .topology import node_sum_windings, tilt_of, winding_grid, winding_integral

__all__ = ["Axis", "SweepSpec", "SweepResult", "run_sweep", "OBSERVABLES"]

OBSERVABLES = ("thetaT", "deltaMinus", "deltaPlus", "imE", "nWzx", "nWyx", "CtZ", "CtY")
WINDINGS = ("nWzx", "nWyx")
OVERLAY_FAMILIES = ("R", "GR", "SI")

FLAG_COLUMNS = ("degenerate", "exceptional", "on_boundary")

_BOUNDARY_RTOL = 1e-9
_CSV_BLOCK = 128
_GRID_BLOCK = 1024
_SPOT_CHECK_SEED = 20240901


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise SweepSpecError(f"axis parameter must be one of {SWEEPABLE}, got {self.name!r}")
        if self.count < 2:
            raise SweepSpecError(f"axis {self.name}: count must be >= 2, got {self.count}")
        if not (self.start < self.stop):
            raise SweepSpecError(f"axis {self.name}: start must be < stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    base: ModelParams
    axes: tuple[Axis, ...]
    levels: tuple[LevelIndex, ...]
    observables: tuple[str, ...]
    overlays: tuple[str, ...] = ()
    spot_check_fraction: float = 0.01
    # 3D sweeps default to boundary surfaces only; set True for full tables
    volumetric: bool | None = None

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise SweepSpecError(f"1 to 3 axes required, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise SweepSpecError(f"axis parameters must be distinct, got {names}")
        if not self.levels:
            raise SweepSpecError("at least one level is required")
        top = max(level.n for level in self.levels)
        if top > N_MAX:
            raise SweepSpecError(f"levels must have n <= {N_MAX} (validity domain), got {top}")
        for obs in self.observables:
            if obs not in OBSERVABLES:
                raise SweepSpecError(f"unknown observable {obs!r}; known: {OBSERVABLES}")
        for fam in self.overlays:
            if fam not in OVERLAY_FAMILIES:
                raise SweepSpecError(f"unknown overlay family {fam!r}")
        fraction = self.spot_check_fraction
        if not (isinstance(fraction, (int, float)) and 0.0 <= fraction <= 1.0):  # nan fails too
            raise SweepSpecError(f"spot_check_fraction must be a number in [0, 1], got {fraction!r}")
        for axis in self.axes:
            # every grid value lies between the axis ends; ModelParams checks them
            self.base.with_value(axis.name, axis.start)
            self.base.with_value(axis.name, axis.stop)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """The spec of a JSON object. Numbers must be JSON numbers in float
        range (no strings or booleans), and counts and levels integers."""
        try:
            base = params_from_dict(data["params"])
            axes = tuple(Axis(a["name"], _spec_number(a, "min"), _spec_number(a, "max"),
                              _spec_number(a, "count", int)) for a in data["axes"])
            levels = tuple(LevelIndex(_spec_number(l, "n", int), _spec_number(l, "eta", int, -1))
                           for l in data["levels"])
            observables = tuple(data.get("observables", ["thetaT"]))
            overlays = tuple(data.get("overlays", []))
            spot_check_fraction = _spec_number(data, "spot_check_fraction", default=0.01)
        except (KeyError, TypeError) as exc:
            raise SweepSpecError(f"malformed sweep spec: {exc!r}") from exc
        volumetric = data.get("volumetric")
        if not (volumetric is None or isinstance(volumetric, bool)):
            raise SweepSpecError(f"volumetric must be true, false or null, got {volumetric!r}")
        return cls(base=base, axes=axes, levels=levels,
                   observables=observables, overlays=overlays,
                   spot_check_fraction=spot_check_fraction,
                   volumetric=volumetric)

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh, parse_int=_json_int))


def _json_int(text: str) -> int | float:
    """An integer literal: its int, or past float range the float it rounds
    to (+-inf), which no number or count accepts; int() stops at 4 300 digits."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


def _spec_number(data: dict, key: str, kind=float, default=None):
    """data[key] (default when absent and given) as a kind: a JSON number in
    float range, an int for kind int; anything else is a SweepSpecError."""
    value = data[key] if default is None else data.get(key, default)
    if (isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return kind(value)
    huge = isinstance(value, int) and not isinstance(value, bool)  # its repr may not exist
    raise SweepSpecError(f"{key!r} must be {'an integer' if kind is int else 'a number'} in float"
                         f" range, got {'an integer past it' if huge else repr(value)}")


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    overlays: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)

    def to_csv(self, path: str | Path) -> None:
        _write_csv(path, self.columns, self.rows)
        for family, (cols, rows) in self.overlays.items():
            _write_csv(f"{path}.overlay.{family}.csv", cols, rows)

    def to_json(self, path: str | Path) -> None:
        payload = {
            "columns": list(self.columns),
            "rows": [[_json_cell(v) for v in row] for row in self.rows],
            "overlays": {
                fam: {"columns": list(cols), "rows": [[_json_cell(v) for v in r] for r in rows]}
                for fam, (cols, rows) in self.overlays.items()
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    if math.isnan(value):
        return None
    return value


def _format_column(values) -> list[str]:
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map("{:.17g}".format, values))
    if kinds == {bool}:
        return ["1" if v else "0" for v in values]
    if kinds == {int}:
        return list(map(str, values))
    return list(map(_format_cell, values))


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        # formatted a column at a time, in blocks of rows to bound the memory
        for start in range(0, len(rows), _CSV_BLOCK):
            cells = [_format_column(column) for column in zip(*rows[start:start + _CSV_BLOCK])]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _integral_winding(params: ModelParams, level: LevelIndex, plane: str) -> int:
    bq = block_quantities(params, level.n)
    grid = winding_grid(params, level, nodes(params, level, "x", bq))
    tex = texture_closed_form(params, level, grid, bq)
    return winding_integral(tex, plane).signed


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep. Deterministic: identical specs give identical rows
    (axes row-major, levels innermost) and byte-identical CSV output."""
    columns = tuple(a.name for a in spec.axes) + ("n", "eta") + tuple(spec.observables) + FLAG_COLUMNS
    volumetric = spec.volumetric if spec.volumetric is not None else len(spec.axes) < 3
    rows = _grid_rows(spec, columns) if volumetric else []
    overlays = {family: _overlay(spec, family) for family in spec.overlays}
    return SweepResult(spec=spec, columns=columns, rows=rows, overlays=overlays)


def _grid_rows(spec: SweepSpec, columns) -> list[tuple]:
    """Every row of the table. Each level is evaluated over a block of grid
    points at once; the blocks bound the memory the arrays take."""
    grid = ParamGrid.product(spec.base, {a.name: a.values() for a in spec.axes})
    coords = [getattr(grid, a.name).tolist() for a in spec.axes]
    size, levels = len(coords[0]), len(spec.levels)
    rows, winding_rows = [], []
    for start in range(0, size, _GRID_BLOCK):
        block = grid.take(slice(start, start + _GRID_BLOCK))
        count = block.g.size
        block_coords = [c[start:start + count] for c in coords]
        tables = []
        for k, level in enumerate(spec.levels):
            try:
                values, flags, checked = _level_columns(block, level, spec.observables)
            except NhjcError as exc:
                if exc.index is None:
                    at = "on the grid"
                else:
                    point = start + exc.index
                    at = "at " + ", ".join(f"{a.name}={c[point]!r}" for a, c in zip(spec.axes, coords))
                raise type(exc)(f"{exc} ({at}, n={level.n}, eta={level.eta})") from exc
            tables.append(zip(*block_coords, [level.n] * count, [level.eta] * count, *values, *flags))
            winding_rows.extend((start + point) * levels + k for point in checked.tolist())
        rows.extend(row for point_rows in zip(*tables) for row in point_rows)
    _spot_check(spec, grid, columns, rows, sorted(winding_rows))
    return rows


def _level_columns(grid: ParamGrid, level: LevelIndex, observables):
    """One level over the grid: a list per observable, the (degenerate,
    exceptional, on_boundary) flag lists and the indices of the points whose
    windings came from the node sum (the spot check's population)."""
    n, size = level.n, grid.g.size
    windings = [obs for obs in observables if obs in WINDINGS]
    if n == 0:
        im_energy = eigen_solution(grid, level).im_energy.tolist()
        nans = [math.nan] * size
        values = [im_energy if obs == "imE" else [0] * size if obs in windings else nans
                  for obs in observables]
        return values, ([True] * size, [False] * size, [False] * size), np.empty(0, int)

    bq = block_quantities(grid, n)
    sol, degenerate = branch_solution(grid, level, bq)
    exceptional = bq.exceptional
    degenerate &= ~exceptional
    regular = ~(exceptional | degenerate)
    coeffs = branch_coefficients(grid, level.eta, bq)
    # within float reach of an R (branch cut), GR (Cz = 0) or SI (Cy = 0) point
    on_boundary = regular & (minimum(*bq.distances(coeffs.c_z, coeffs.c_y)) < _BOUNDARY_RTOL)
    # the winding direction is undefined on a boundary
    checked = np.flatnonzero(regular & ~on_boundary) if windings else np.empty(0, int)
    signed = _node_sums(n, windings, sol, coeffs, checked)
    gp = gaps(grid, n, bq) if {"deltaMinus", "deltaPlus"}.intersection(observables) else None
    values = []
    for obs in observables:
        if obs == "thetaT":
            defined = regular & ((coeffs.c_z != 0.0) | (coeffs.c_y != 0.0))
            column = np.where(defined, tilt_of(coeffs.c_y, coeffs.c_z).theta_t, math.nan)
        elif obs == "deltaMinus":
            column = np.where(regular, gp.delta_minus, np.where(exceptional, 0.0, math.nan))
        elif obs == "deltaPlus":
            column = np.where(degenerate, math.nan, gp.delta_plus)
        elif obs == "imE":
            column = np.where(regular, sol.im_energy,
                              np.where(exceptional, -(n - 0.5) * grid.kappa, math.nan))
        elif obs in ("CtZ", "CtY"):
            column = np.where(regular, coeffs.c_z if obs == "CtZ" else coeffs.c_y, math.nan)
        else:  # integer windings on the checked points, nan elsewhere
            column = np.full(size, math.nan, dtype=object)
            column[checked] = signed[obs].tolist()
        values.append(column.tolist())
    return values, (degenerate.tolist(), exceptional.tolist(), on_boundary.tolist()), checked


def _node_sums(n: int, windings, sol, coeffs, checked) -> dict:
    """Node-sum windings of the checked points, one array per winding
    observable: one sigma_x node solve for all of them. A failed check names
    its point by the index into the level's grid."""
    if not windings or not checked.size:
        return {obs: np.empty(0, int) for obs in windings}
    try:
        x_nodes = x_node_arrays(n, coefficient_ratio(sol.c_up[checked], sol.c_down[checked]))
        amplitudes = {"nWzx": coeffs.c_z, "nWyx": coeffs.c_y}
        return {obs: node_sum_windings(obs[2:], zy_node_arrays(n, amplitudes[obs][checked]), x_nodes)
                for obs in windings}
    except NhjcError as exc:
        if exc.index is not None:
            exc.index = int(checked[exc.index])
        raise


def _spot_check(spec: SweepSpec, grid: ParamGrid, columns, rows, winding_rows) -> None:
    """Re-derive a deterministic 1% subsample of windings via the integral;
    winding_rows are the indices of the rows with node-sum windings."""
    if not winding_rows or spec.spot_check_fraction <= 0.0:
        return
    count = max(1, round(spec.spot_check_fraction * len(winding_rows)))
    picks = random.Random(_SPOT_CHECK_SEED).sample(range(len(winding_rows)), min(count, len(winding_rows)))
    planes = [obs for obs in spec.observables if obs in WINDINGS]
    for pick in sorted(picks):
        row_index = winding_rows[pick]
        point, k = divmod(row_index, len(spec.levels))
        params, level = grid.point(point), spec.levels[k]
        row = rows[row_index]
        for obs in planes:
            fast = row[columns.index(obs)]
            slow = _integral_winding(params, level, obs[2:])
            if int(fast) != slow:
                raise SweepConsistencyError(
                    f"winding methods disagree at row {row_index} "
                    f"({', '.join(f'{c}={v}' for c, v in zip(columns, row))}): "
                    f"node-sum {fast} vs integral {slow} in {obs}"
                )


def _overlay(spec: SweepSpec, family: str):
    """Boundary curve/surface of one family sampled on the sweep axes.

    The boundary is solved for the first axis with a closed form, over the
    grid of the other axes at once; family R adds one curve per level.
    """
    solve_axis = next((a for a in spec.axes if a.name in SOLVABLE), None)
    if solve_axis is None:
        return (("note",), [("no closed-form axis for overlay",)])
    other_axes = [a for a in spec.axes if a is not solve_axis]
    level_column = ("n",) if family == "R" else ()
    columns = tuple(a.name for a in other_axes) + level_column + (solve_axis.name, "valid")
    positive_levels = sorted({lvl.n for lvl in spec.levels if lvl.n >= 1})
    levels = positive_levels if family == "R" else [positive_levels[0] if positive_levels else None]
    grid = ParamGrid.product(spec.base, {a.name: a.values() for a in other_axes})
    coords = [getattr(grid, a.name).tolist() for a in other_axes]
    size = grid.g.size
    tables = []
    for n in levels:
        point = _solve(grid, family, solve_axis.name, n)
        level = ([n] * size,) if family == "R" else ()
        tables.append(zip(*coords, *level, point.value.tolist(), point.valid.tolist()))
    return (columns, [row for point_rows in zip(*tables) for row in point_rows])
