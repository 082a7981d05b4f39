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
points: block n is evaluated once, plus blocks n-1 and n+1 for deltaPlus,
each kept on its block of points for every level that reads it again.
Exceptional, degenerate, n = 0 and on_boundary points (within BOUNDARY_RTOL
of an R, GR or SI boundary, where the direction-dependent columns are nan)
are masks within the same arrays. The rows are bit for bit what
eigen_solution, texture_coefficients, gaps, tilting_angle and winding_report
give point by point.

Winding numbers are the exact-integer node sums of topology.Windings, which
solve no sigma_x node. A deterministic 1% subsample of rows is re-derived by
its phase-unwrapping integral, and a mismatch aborts the sweep naming the
row; any other error names the grid point, n and eta.

The table is kept as one array per column (one row per grid point per
level, levels innermost) and rendered to CSV a block of rows at a time, each
float the exact text of '%.17g' (nhjc.csvtext) and each flag 0/1, so
identical specs give byte-identical files. Each overlay family is solved over the grid of the
other axes at once, one call per level (boundaries._solve).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .boundaries import FAMILIES, SOLVABLE, _solve
from .csvtext import csv_lines, float_cells, text_cells
from .errors import NhjcError, SweepConsistencyError, SweepSpecError
from .params import N_MAX, SWEEPABLE, LevelIndex, ModelParams, ParamGrid, check_magnitude, minimum, params_from_dict
from .spectrum import BOUNDARY_RTOL, block_quantities, branch_solution, eigen_solution, gaps
from .texture import TextureCoefficients, branch_coefficients
from .topology import Windings, tilt_of

__all__ = ["Axis", "SweepSpec", "SweepResult", "run_sweep", "OBSERVABLES"]

OBSERVABLES = ("thetaT", "deltaMinus", "deltaPlus", "imE", "nWzx", "nWyx", "CtZ", "CtY")
WINDINGS = ("nWzx", "nWyx")
OVERLAY_FAMILIES = tuple(FAMILIES)

FLAG_COLUMNS = ("degenerate", "exceptional", "on_boundary")

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
        if math.prod(a.count for a in self.axes) > sys.maxsize:
            raise SweepSpecError(f"the grid must have at most {sys.maxsize} points, got "
                                 f"{' x '.join(str(a.count) for a in self.axes)}")
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
            for value in (axis.start, axis.stop):
                self.base.with_value(axis.name, value)
                check_magnitude(axis.name, value)

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
    """A sweep's table, one array per column (windings as floats, nan off
    the checked points), and its overlays. rows builds the rows, as Python
    values with int windings, on each read."""

    spec: SweepSpec
    columns: tuple[str, ...]
    table: dict[str, np.ndarray]
    overlays: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)

    @property
    def rows(self) -> list[tuple]:
        cells = ((name, self.table[name].tolist()) for name in self.columns)
        return list(zip(*([v if math.isnan(v) else int(v) for v in c] if name in WINDINGS else c
                          for name, c in cells)))

    def to_csv(self, path: str | Path) -> None:
        _write_table(path, self.spec, self.columns, self.table)
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


def _json_cell(value):
    if isinstance(value, float):
        return None if math.isnan(value) else value
    return int(value) if isinstance(value, bool) else value


def _write_table(path, spec: SweepSpec, columns, table: dict[str, np.ndarray]) -> None:
    """The table as CSV, a block of _GRID_BLOCK rows at a time: the block's
    observables go through one float_cells call, and each axis value, n, eta
    and flag is gathered from its text, rendered once, by grid point and level."""
    counts = [axis.count for axis in spec.axes]
    axes = np.split(float_cells(np.concatenate([axis.values() for axis in spec.axes])), np.cumsum(counts)[:-1])
    levels = [text_cells([str(getattr(level, name)) for level in spec.levels]) for name in ("n", "eta")]
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode() + b"\n")
        for start in range(0, len(table["n"]), _GRID_BLOCK):
            rows = slice(start, start + _GRID_BLOCK)
            point, level = np.divmod(np.arange(start, start + len(table["n"][rows])), len(spec.levels))
            cells = [text[at] for text, at in zip(axes, np.unravel_index(point, counts))]
            cells += [text[level] for text in levels] + list(float_cells([table[o][rows] for o in spec.observables]))
            cells += [text_cells("01")[table[name][rows].astype(int)] for name in FLAG_COLUMNS]
            fh.write(csv_lines(cells))


def _write_csv(path, columns, rows) -> None:
    """An overlay table: a column of str (the note) as it is, the other
    columns through one float_cells call."""
    cells = list(zip(*rows))
    numbers = [i for i, column in enumerate(cells) if not isinstance(column[0], str)]
    for i, column in zip(numbers, float_cells([cells[i] for i in numbers])):
        cells[i] = column
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode() + b"\n")
        if rows:
            fh.write(csv_lines([text_cells(c) if isinstance(c, tuple) else c for c in cells]))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep. Deterministic: identical specs give identical rows
    (axes row-major, levels innermost) and byte-identical CSV output."""
    columns = tuple(a.name for a in spec.axes) + ("n", "eta") + tuple(spec.observables) + FLAG_COLUMNS
    volumetric = spec.volumetric if spec.volumetric is not None else len(spec.axes) < 3
    table = _grid_table(spec, columns) if volumetric else dict.fromkeys(columns, np.empty(0))
    overlays = {family: _overlay(spec, family) for family in spec.overlays}
    return SweepResult(spec=spec, columns=columns, table=table, overlays=overlays)


def _grid_table(spec: SweepSpec, columns) -> dict[str, np.ndarray]:
    """Every column of the table. Each level is evaluated over a block of
    grid points at once; the blocks bound the memory."""
    grid = ParamGrid.product(spec.base, {a.name: a.values() for a in spec.axes})
    size, levels = grid.g.size, len(spec.levels)
    table = {a.name: np.repeat(getattr(grid, a.name), levels) for a in spec.axes}
    table.update((name, np.tile([getattr(level, name) for level in spec.levels], size)) for name in ("n", "eta"))
    table.update((name, np.empty(size * levels, bool if name in FLAG_COLUMNS else float))
                 for name in columns[len(spec.axes) + 2:])
    winding_rows = []
    for start in range(0, size, _GRID_BLOCK):
        block = grid.take(slice(start, start + _GRID_BLOCK))
        count = block.g.size
        for k, level in enumerate(spec.levels):
            try:
                values, checked = _level_columns(block, level, spec.observables)
            except NhjcError as exc:
                raise _named(exc, spec, grid, range(start, start + count), level) from exc
            rows = slice(start * levels + k, (start + count) * levels, levels)
            for name, column in values.items():
                table[name][rows] = column
            winding_rows.append((start + checked) * levels + k)
    _spot_check(spec, grid, columns, table, np.sort(np.concatenate(winding_rows)))
    return table


def _named(exc: NhjcError, spec: SweepSpec, grid: ParamGrid, points, level: LevelIndex) -> NhjcError:
    """exc again, naming the grid point points[exc.index] (or the grid), n and eta."""
    if exc.index is None:
        at = "on the grid"
    else:
        point = points[exc.index]
        at = "at " + ", ".join(f"{a.name}={getattr(grid, a.name)[point].item()!r}" for a in spec.axes)
    return type(exc)(f"{exc} ({at}, n={level.n}, eta={level.eta})")


def _level_columns(grid: ParamGrid, level: LevelIndex, observables):
    """One level over the grid: {column: array or scalar} for the observables
    and flags, and the indices of the points whose windings came from the
    node sum (the spot check's population)."""
    n, size = level.n, grid.g.size
    windings = [obs for obs in observables if obs in WINDINGS]
    if n == 0:
        im_energy = eigen_solution(grid, level).im_energy
        values = {obs: im_energy if obs == "imE" else 0.0 if obs in windings else math.nan for obs in observables}
        return dict(values, degenerate=True, exceptional=False, on_boundary=False), np.empty(0, int)

    bq = block_quantities(grid, n)
    sol, degenerate = branch_solution(grid, level)
    exceptional = bq.exceptional
    degenerate &= ~exceptional
    regular = ~(exceptional | degenerate)
    coeffs = branch_coefficients(grid, level)
    # within float reach of an R (branch cut), GR (Cz = 0) or SI (Cy = 0) point
    on_boundary = regular & (minimum(*bq.distances(coeffs.c_z, coeffs.c_y)) < BOUNDARY_RTOL)
    # the winding direction is undefined on a boundary
    checked = np.flatnonzero(regular & ~on_boundary) if windings else np.empty(0, int)
    if windings:  # a failed check names its point by its index into the grid
        try:
            held = TextureCoefficients(coeffs.c_z[checked], coeffs.c_y[checked], coeffs.d_x[checked])
            found = Windings(grid.take(checked[:, None]), level, held)
            signed = {obs: found.node_sums(obs[2:]) for obs in windings}
        except NhjcError as exc:
            exc.index = None if exc.index is None else int(checked[exc.index])
            raise
    if {"deltaMinus", "deltaPlus"} & set(observables):
        gp = gaps(grid, n, neighbours="deltaPlus" in observables)
    values = dict(degenerate=degenerate, exceptional=exceptional, on_boundary=on_boundary)
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
            column = np.full(size, math.nan)
            column[checked] = signed[obs]
        values[obs] = column
    return values, checked


def _spot_check(spec: SweepSpec, grid: ParamGrid, columns, table, winding_rows: np.ndarray) -> None:
    """Re-derive a deterministic 1% subsample of windings via the integral,
    a level at a time over blocks of the picked rows; winding_rows are the
    indices of the rows with node-sum windings. An error names its point."""
    if not winding_rows.size or spec.spot_check_fraction <= 0.0:
        return
    count = max(1, round(spec.spot_check_fraction * len(winding_rows)))
    picks = random.Random(_SPOT_CHECK_SEED).sample(range(len(winding_rows)), min(count, len(winding_rows)))
    picked = winding_rows[sorted(picks)]
    planes = [obs for obs in spec.observables if obs in WINDINGS]
    levels = len(spec.levels)
    for start in range(0, len(picked), _GRID_BLOCK):
        block = picked[start:start + _GRID_BLOCK]
        for k, level in enumerate(spec.levels):
            at = block[block % levels == k]
            if not at.size:
                continue
            points = grid.take(at[:, None] // levels)
            try:
                found = Windings(points, level).integrals([obs[2:] for obs in planes])
            except NhjcError as exc:
                raise _named(exc, spec, grid, at // levels, level) from exc
            fast = np.stack([table[obs][at] for obs in planes], axis=-1)
            slow = np.stack([signed for signed, _ in found.values()], axis=-1)
            for i, j in np.argwhere(fast != slow)[:1].tolist():  # the first by row, then by plane
                row = SweepResult(spec, columns, table).rows[at[i]]
                cells = ", ".join(f"{c}={v}" for c, v in zip(columns, row))
                raise SweepConsistencyError(f"winding methods disagree at row {at[i]} ({cells}): "
                                            f"node-sum {int(fast[i, j])} vs integral {slow[i, j]} in {planes[j]}")


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
    return (columns, list(chain.from_iterable(zip(*tables))))
