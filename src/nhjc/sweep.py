"""Parameter-sweep engine: observables over 1D/2D/3D grids plus boundary overlays.

A sweep walks a rectangular grid of one to three model parameters (row-major,
first axis slowest) and, for every grid point and requested level, evaluates a
subset of the observables, the columns that _COLUMNS defines once each. Each
level is evaluated over the whole grid, a chunk of points at a time
(params.chunks), reading block n once and what its columns' rows name, each
block kept on its chunk of points for every level that reads it again.
Exceptional, degenerate, n = 0 and on_boundary points (within BOUNDARY_RTOL of
an R, GR or SI boundary) are masks within the same arrays, the rows bit for bit
what eigen_solution, texture_coefficients, gaps, tilting_angle and
winding_report give point by point.

Winding numbers are the exact-integer node sums of topology.Windings, which
solve no sigma_x node. A seeded spot_check_fraction of the rows (default 1%)
is re-derived by its phase-unwrapping integral, and a mismatch aborts the
sweep naming the row; any other error names the grid point, n and eta.

The table and each overlay are one array per column in row order (levels
innermost), the table rendered to CSV a block of rows at a time and an
overlay by csvtext.csv_table, each float the exact text of '%.17g' and each
flag 0/1, so identical specs give byte-identical files. Each overlay family
is solved over the grid of the other axes at once, one call per level.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .boundaries import FAMILIES, SOLVABLE, _solve
from .csvtext import csv_lines, csv_table, float_cells, text_cells
from .errors import NhjcError, SweepConsistencyError, SweepSpecError
from .params import (SWEEPABLE, LevelIndex, ModelParams, ParamGrid, batch_index, check_level, check_magnitude, chunks,
                     float_count, load_json, minimum, params_from_dict, read_number, read_object, shown)
from .spectrum import BOUNDARY_RTOL, block_quantities, branch_solution, eigen_solution, gaps
from .texture import TextureCoefficients, branch_coefficients
from .topology import Windings, tilt_of

__all__ = ["Axis", "SweepSpec", "SweepResult", "run_sweep", "OBSERVABLES"]

# One row per column: (its meaning, what it reads beyond block n and the state's coefficients, its value
# on regular points, at exceptional points and at n = 0), a value a constant or a function of the level's
# reads (_level_columns). Every column is nan at degenerate points, and a winding also on on_boundary points.
_COLUMNS = {
    "thetaT": ("tilting angle of the winding plane", "", lambda at: np.where(
        (at.c_z != 0.0) | (at.c_y != 0.0), tilt_of(at.c_y, at.c_z).theta_t, math.nan), math.nan, math.nan),
    "deltaMinus": ("intra-block real-energy gap", "gaps", lambda at: at.gaps.delta_minus, 0.0, math.nan),
    "deltaPlus": ("nearest adjacent-block real-energy gap", "neighbours", lambda at: at.gaps.delta_plus,
                  lambda at: at.gaps.delta_plus, math.nan),
    "imE": ("imaginary part of the eigenenergy", "", lambda at: at.sol.im_energy,
            lambda at: -(at.level.n - 0.5) * at.grid.kappa, lambda at: eigen_solution(at.grid, at.level).im_energy),
    "nWzx": ("signed zx winding number (node sum)", "node sums", lambda at: _node_sums(at, "zx"), math.nan, 0.0),
    "nWyx": ("signed yx winding number (node sum)", "node sums", lambda at: _node_sums(at, "yx"), math.nan, 0.0),
    "CtZ": ("closed-form texture coefficient Cz", "", lambda at: at.c_z, math.nan, math.nan),
    "CtY": ("closed-form texture coefficient Cy", "", lambda at: at.c_y, math.nan, math.nan),
}
OBSERVABLES = tuple(_COLUMNS)
WINDINGS = tuple(name for name, row in _COLUMNS.items() if row[1] == "node sums")

FLAG_COLUMNS = ("degenerate", "exceptional", "on_boundary")

_SPOT_CHECK_SEED = 20240901


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise SweepSpecError(f"axis parameter must be one of {SWEEPABLE}, got {shown(self.name)}")
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
        if math.prod(a.count for a in self.axes) > sys.maxsize:
            raise SweepSpecError(f"the grid must have at most {sys.maxsize} points, got "
                                 f"{' x '.join(str(a.count) for a in self.axes)}")
        names = {"axis parameter": [a.name for a in self.axes], "observable": list(self.observables),
                 "overlay family": list(self.overlays), "level": [(l.n, l.eta) for l in self.levels]}
        for what, known in (("observable", tuple(_COLUMNS)), ("overlay family", FAMILIES)):  # Axis checks its name
            for name in names[what]:
                if name not in known:
                    raise SweepSpecError(f"unknown {what} {shown(name)}; known: {known}")
        for what, listed in names.items():
            if len(set(listed)) != len(listed):
                raise SweepSpecError(f"each {what} may be named once, got {listed}")
        if not self.levels:
            raise SweepSpecError("at least one level is required")
        for level in self.levels:
            check_level(level.n, name="level n", error=SweepSpecError)
        fraction = self.spot_check_fraction
        if not (isinstance(fraction, (int, float)) and 0.0 <= fraction <= 1.0):  # nan fails too
            raise SweepSpecError(f"spot_check_fraction must be a number in [0, 1], got {shown(fraction)}")
        for axis in self.axes:
            # every grid value lies between the axis ends; ModelParams checks them
            for value in (axis.start, axis.stop):
                self.base.with_value(axis.name, value)
                check_magnitude(axis.name, value)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """The spec of a JSON object, read by the readers of nhjc.params.
        Numbers must be JSON numbers in float range (no strings or booleans),
        counts and levels integers, and the observables and overlays arrays;
        an unknown or missing key is an error."""
        read_object(data, "sweep spec", *_KEYS["sweep spec"], error=SweepSpecError)
        base = params_from_dict(data["params"])
        axes = tuple(Axis(a["name"], _number(a, "min", "axis"), _number(a, "max", "axis"),
                          _number(a, "count", "axis", kind=int)) for a in _spec_array(data, "axes", "axis"))
        levels = tuple(LevelIndex(_number(l, "n", "level", kind=int), _number(l, "eta", "level", -1, int))
                       for l in _spec_array(data, "levels", "level"))
        observables = _spec_array(data, "observables", default=list(OBSERVABLES[:1]))  # the first row, the tilt
        overlays = _spec_array(data, "overlays", default=[])
        spot_check_fraction = _number(data, "spot_check_fraction", "sweep spec", 0.01)
        volumetric = data.get("volumetric")
        if not (volumetric is None or isinstance(volumetric, bool)):
            raise SweepSpecError(f"volumetric must be true, false or null, got {shown(volumetric)}")
        return cls(base=base, axes=axes, levels=levels, observables=observables, overlays=overlays,
                   spot_check_fraction=spot_check_fraction, volumetric=volumetric)

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        return cls.from_dict(load_json(path))


# the required and the optional keys of a sweep spec, of each of its axes and of each of its levels
_KEYS = {"sweep spec": (("params", "axes", "levels"), ("observables", "overlays", "spot_check_fraction",
                                                     "volumetric")),
         "axis": (("name", "min", "max", "count"),), "level": (("n",), ("eta",))}

_number = functools.partial(read_number, error=SweepSpecError)


def _spec_array(data: dict, key: str, what: str = "", default: list | None = None) -> tuple:
    """data[key] (default when absent), a JSON array (of the JSON objects of a `what`, read_object), as a tuple."""
    value = data.get(key, default)
    if not isinstance(value, list) or what and not all(isinstance(item, dict) for item in value):
        raise SweepSpecError(f"{key!r} must be a JSON array{what and ' of objects'}, got {shown(value)}")
    return tuple(read_object(item, what, *_KEYS[what], error=SweepSpecError) for item in value) if what else tuple(value)


@dataclass
class SweepResult:
    """A sweep's table and overlays, each {column: array} in row order (windings as floats, nan off
    the checked points). rows builds the table's rows, as Python values with int windings, on each read."""

    spec: SweepSpec
    table: dict[str, np.ndarray]
    overlays: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.table)

    @property
    def rows(self) -> list[tuple]:
        return _rows(self.table)

    def to_csv(self, path: str | Path) -> None:
        _write_table(path, self.spec, self.table)
        for family, overlay in self.overlays.items():
            Path(f"{path}.overlay.{family}.csv").write_bytes(csv_table(overlay))

    def to_json(self, path: str | Path) -> None:
        payload = dict(_json_table(self.table), overlays={f: _json_table(t) for f, t in self.overlays.items()})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _rows(table: dict) -> list[tuple]:
    """The rows of a table of columns as Python values, windings as ints (nan off the checked points)."""
    return list(zip(*([v if math.isnan(v) else int(v) for v in c.tolist()] if name in WINDINGS else c.tolist()
                      for name, c in table.items())))


def _json_table(table: dict) -> dict:
    """A table of columns as JSON: its column names and rows, nan as null and flags as 0/1."""
    return {"columns": list(table),
            "rows": [[None if v != v else int(v) if isinstance(v, bool) else v for v in row] for row in _rows(table)]}


def _write_table(path, spec: SweepSpec, table: dict[str, np.ndarray]) -> None:
    """The table as CSV, a chunk of rows at a time (params.chunks): the chunk's
    observables go through one float_cells call, and each axis value, n, eta
    and flag is gathered from its text, rendered once, by grid point and level."""
    counts = [axis.count for axis in spec.axes]
    axes = np.split(float_cells(np.concatenate([axis.values() for axis in spec.axes])), np.cumsum(counts)[:-1])
    levels = [text_cells([str(getattr(level, name)) for level in spec.levels]) for name in ("n", "eta")]
    with open(path, "wb") as fh:
        fh.write(",".join(table).encode() + b"\n")
        for rows in chunks(len(table["n"])):
            point, level = np.divmod(np.arange(rows.start, rows.stop), len(spec.levels))
            cells = [text[at] for text, at in zip(axes, np.unravel_index(point, counts))]
            cells += [text[level] for text in levels] + list(float_cells([table[o][rows] for o in spec.observables]))
            cells += [text_cells("01")[table[name][rows].astype(int)] for name in FLAG_COLUMNS]
            fh.write(csv_lines(cells))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep. Deterministic: identical specs give identical rows
    (axes row-major, levels innermost) and byte-identical CSV output."""
    float_count(math.prod(a.count for a in spec.axes), len(spec.levels))  # a grid-table column: points x levels
    columns = tuple(a.name for a in spec.axes) + ("n", "eta") + tuple(spec.observables) + FLAG_COLUMNS
    volumetric = spec.volumetric if spec.volumetric is not None else len(spec.axes) < 3
    table = _grid_table(spec, columns) if volumetric else dict.fromkeys(columns, np.empty(0))
    overlays = {family: _overlay(spec, family) for family in spec.overlays}
    return SweepResult(spec=spec, table=table, overlays=overlays)


def _grid_table(spec: SweepSpec, columns) -> dict[str, np.ndarray]:
    """Every column of the table. Each level is evaluated over a chunk of
    grid points at once (params.chunks); the chunks bound the memory."""
    grid = ParamGrid.product(spec.base, {a.name: a.values() for a in spec.axes})
    size, levels = grid.g.size, len(spec.levels)
    table = {a.name: np.repeat(getattr(grid, a.name), levels) for a in spec.axes}
    table.update((name, np.tile([getattr(level, name) for level in spec.levels], size)) for name in ("n", "eta"))
    table.update((name, np.empty(size * levels, bool if name in FLAG_COLUMNS else float))
                 for name in columns[len(spec.axes) + 2:])
    for points in chunks(size):
        block = grid.take(points)
        for k, level in enumerate(spec.levels):
            with _named(spec, grid, level), batch_index(points):
                values = _level_columns(block, level, spec.observables)
            rows = slice(points.start * levels + k, points.stop * levels, levels)
            for name, column in values.items():
                table[name][rows] = column
    _spot_check(spec, grid, table)
    return table


@contextlib.contextmanager
def _named(spec: SweepSpec, grid: ParamGrid, level: LevelIndex):
    """An NhjcError raised in the body, raised again naming the grid point
    exc.index (or the grid), n and eta."""
    try:
        yield
    except NhjcError as exc:
        at = "on the grid" if exc.index is None else "at " + ", ".join(
            f"{a.name}={getattr(grid, a.name)[exc.index].item()!r}" for a in spec.axes)
        raise type(exc)(f"{exc} ({at}, n={level.n}, eta={level.eta})") from exc


def _level_columns(grid: ParamGrid, level: LevelIndex, observables):
    """One level over the grid: {column: array or scalar} for the observables
    and flags. Each read is evaluated only if a requested row names it."""
    rows = {name: _COLUMNS[name] for name in observables}
    reads = {row[1] for row in rows.values()}
    at = SimpleNamespace(grid=grid, level=level)

    def value(row_value):  # a constant, or a function of the level's reads
        return row_value(at) if callable(row_value) else row_value
    if level.n == 0:
        values = {name: value(row[4]) for name, row in rows.items()}
        return dict(values, degenerate=True, exceptional=False, on_boundary=False)
    bq = block_quantities(grid, level.n)  # evaluated here: branch_solution reads it back
    at.sol, degenerate = branch_solution(grid, level)
    degenerate &= ~bq.exceptional
    regular = ~(bq.exceptional | degenerate)
    coeffs = branch_coefficients(grid, level)
    at.c_z, at.c_y = coeffs.c_z, coeffs.c_y
    # within float reach of an R (branch cut), GR (Cz = 0) or SI (Cy = 0) point
    on_boundary = regular & (minimum(*bq.distances(coeffs.c_z, coeffs.c_y)) < BOUNDARY_RTOL)
    if "node sums" in reads:  # the winding direction is undefined on a boundary
        at.checked = checked = np.flatnonzero(regular & ~on_boundary)
        with batch_index(checked):  # a failed check names its point by its index into the grid
            held = TextureCoefficients(coeffs.c_z[checked], coeffs.c_y[checked], coeffs.d_x[checked])
            at.windings = Windings(grid.take(checked[:, None]), level, held)
    if reads & {"gaps", "neighbours"}:
        at.gaps = gaps(grid, level.n, neighbours="neighbours" in reads)
    values = dict(degenerate=degenerate, exceptional=bq.exceptional, on_boundary=on_boundary)
    for name, (_, _, on_regular, on_exceptional, _) in rows.items():
        values[name] = np.where(regular, on_regular(at), np.where(bq.exceptional, value(on_exceptional), math.nan))
    return values


def _node_sums(at, plane: str) -> np.ndarray:
    """A winding column: the node sums in the plane on the checked points, nan elsewhere."""
    signed = np.full(at.grid.g.size, math.nan)
    signed[at.checked] = at.windings.node_sums(plane)
    return signed


def _spot_check(spec: SweepSpec, grid: ParamGrid, table) -> None:
    """Re-derive a seeded spot_check_fraction of the node-sum windings (those
    at n >= 1 and not nan) via the integral, a level at a time over chunks of
    picks (params.chunks), which bounds memory. An error names its point."""
    planes = [obs for obs in spec.observables if obs in WINDINGS]
    if not planes or spec.spot_check_fraction <= 0.0:
        return
    winding_rows = np.flatnonzero((table["n"] > 0) & ~np.isnan(table[planes[0]]))
    count = max(1, round(spec.spot_check_fraction * len(winding_rows)))
    picks = random.Random(_SPOT_CHECK_SEED).sample(range(len(winding_rows)), min(count, len(winding_rows)))
    picked = winding_rows[sorted(picks)]
    levels = len(spec.levels)
    for block in (picked[rows] for rows in chunks(len(picked))):
        for k, level in enumerate(spec.levels):
            at = block[block % levels == k]
            if not at.size:
                continue
            with _named(spec, grid, level), batch_index(at // levels):
                found = Windings(grid.take(at[:, None] // levels), level).integrals([obs[2:] for obs in planes])
            fast = np.stack([table[obs][at] for obs in planes], axis=-1)
            slow = np.stack([signed for signed, _ in found.values()], axis=-1)
            for i, j in np.argwhere(fast != slow)[:1].tolist():  # the first by row, then by plane
                row = _rows({name: column[at[i]:at[i] + 1] for name, column in table.items()})[0]
                cells = ", ".join(f"{c}={v}" for c, v in zip(table, row))
                raise SweepConsistencyError(f"winding methods disagree at row {at[i]} ({cells}): "
                                            f"node-sum {int(fast[i, j])} vs integral {slow[i, j]} in {planes[j]}")


def _overlay(spec: SweepSpec, family: str) -> dict[str, np.ndarray]:
    """Boundary curve/surface of one family sampled on the sweep axes: the
    columns of the other axes, n (family R), the solved axis and valid.

    The boundary is solved for the first axis with a closed form, over the
    grid of the other axes at once; family R adds one curve per level.
    """
    solve_axis = next((a for a in spec.axes if a.name in SOLVABLE), None)
    if solve_axis is None:
        return {"note": np.array(["no closed-form axis for overlay"])}
    other_axes = [a for a in spec.axes if a is not solve_axis]
    positive_levels = sorted({lvl.n for lvl in spec.levels if lvl.n >= 1})
    levels = positive_levels if family == "R" else positive_levels[:1] or [1]
    grid = ParamGrid.product(spec.base, {a.name: a.values() for a in other_axes})
    values, valid = np.empty((grid.g.size, len(levels))), np.empty((grid.g.size, len(levels)), bool)
    for k, n in enumerate(levels):
        point = _solve(grid, family, solve_axis.name, n)
        values[:, k], valid[:, k] = point.value, point.valid
    table = {a.name: np.repeat(getattr(grid, a.name), len(levels)) for a in other_axes}
    if family == "R":
        table["n"] = np.tile(np.array(levels, int), grid.g.size)
    table[solve_axis.name], table["valid"] = values.ravel(), valid.ravel()
    return table
