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

Winding numbers use the exact-integer node-sum route; a deterministic 1%
subsample is re-checked with the phase-unwrapping integral and any mismatch
aborts the sweep naming the offending grid point. Points within 1e-9
(relative) of a reversal/gapped-reversal/super-invariant boundary are flagged
on_boundary and their direction-dependent observables are left as nan, since
the winding direction is genuinely undefined there. The distances and their
normalisers are those of spectrum.BlockQuantities, which verify's draw
margins use too. Every non-winding observable of a row is read off the
row's one block; deltaPlus adds the neighbouring blocks n-1 and n+1.

Output is a flat table (one row per grid point per level, levels innermost)
rendered to CSV with 17-significant-digit floats and 0/1 integer flags, so
identical specs reproduce byte-identical files. Boundary overlays are written
as sibling curves sampled on the same axes.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boundaries import SOLVABLE, boundary_GR, boundary_R, boundary_SI
from .errors import (
    DegenerateStateError,
    NoBoundaryError,
    SweepConsistencyError,
    SweepSpecError,
    UndefinedTiltError,
)
from .oscillator import N_MAX
from .params import SWEEPABLE, LevelIndex, ModelParams, params_from_dict
from .spectrum import BlockQuantities, block_quantities, eigen_solution, gaps
from .texture import nodes, texture_closed_form, texture_coefficients
from .topology import tilting_angle, winding_grid, winding_integral, winding_node_sum

__all__ = ["Axis", "SweepSpec", "SweepResult", "run_sweep", "OBSERVABLES"]

OBSERVABLES = ("thetaT", "deltaMinus", "deltaPlus", "imE", "nWzx", "nWyx", "CtZ", "CtY")
OVERLAY_FAMILIES = ("R", "GR", "SI")

FLAG_COLUMNS = ("degenerate", "exceptional", "on_boundary")

_BOUNDARY_RTOL = 1e-9
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

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        try:
            base = params_from_dict(data["params"])
            axes = tuple(Axis(a["name"], float(a["min"]), float(a["max"]), int(a["count"]))
                         for a in data["axes"])
            levels = tuple(LevelIndex(int(l["n"]), int(l.get("eta", -1)))
                           for l in data["levels"])
            observables = tuple(data.get("observables", ["thetaT"]))
            overlays = tuple(data.get("overlays", []))
            spot_check_fraction = float(data.get("spot_check_fraction", 0.01))
        except (KeyError, TypeError, ValueError) as exc:
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
            return cls.from_dict(json.load(fh))


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


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _node_sum_winding(params: ModelParams, level: LevelIndex, plane: str,
                      block: BlockQuantities) -> int:
    alpha, beta = plane[0], plane[1]
    return winding_node_sum(nodes(params, level, alpha, block),
                            nodes(params, level, beta, block)).signed


def _integral_winding(params: ModelParams, level: LevelIndex, plane: str) -> int:
    grid = winding_grid(params, level)
    tex = texture_closed_form(params, level, grid)
    return winding_integral(tex, plane).signed


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep. Deterministic: identical specs give identical rows
    (axes row-major, levels innermost) and byte-identical CSV output."""
    axis_values = [axis.values() for axis in spec.axes]
    axis_names = [axis.name for axis in spec.axes]
    wants_winding = any(o in spec.observables for o in ("nWzx", "nWyx"))
    columns = tuple(axis_names) + ("n", "eta") + tuple(spec.observables) + FLAG_COLUMNS
    rows: list[tuple] = []
    winding_rows: list[tuple[int, ModelParams, LevelIndex]] = []
    volumetric = spec.volumetric if spec.volumetric is not None else len(spec.axes) < 3

    for coords in itertools.product(*axis_values) if volumetric else ():
        point = [float(value) for value in coords]
        params = spec.base
        for name, value in zip(axis_names, point):
            params = params.with_value(name, value)
        for level in spec.levels:
            row = point + [level.n, level.eta]
            values, flags, check_winding = _evaluate_point(params, level, spec.observables)
            row.extend(values)
            row.extend(flags)
            if check_winding and wants_winding:
                winding_rows.append((len(rows), params, level))
            rows.append(tuple(row))

    _spot_check(spec, columns, rows, winding_rows)

    overlays = {}
    for family in spec.overlays:
        overlays[family] = _overlay(spec, family)
    return SweepResult(spec=spec, columns=columns, rows=rows, overlays=overlays)


def _evaluate_point(params: ModelParams, level: LevelIndex, observables):
    """Observable values plus (degenerate, exceptional, on_boundary) flags."""
    nan = math.nan
    if level.n == 0:
        sol = eigen_solution(params, level)
        values = []
        for obs in observables:
            if obs == "imE":
                values.append(sol.im_energy)
            elif obs in ("nWzx", "nWyx"):
                values.append(0)
            else:
                values.append(nan)
        return values, (True, False, False), False

    bq = block_quantities(params, level.n)
    if bq.exceptional:
        values = []
        for obs in observables:
            if obs == "imE":
                values.append(-(level.n - 0.5) * params.kappa)
            elif obs == "deltaMinus":
                values.append(0.0)
            elif obs == "deltaPlus":
                values.append(gaps(params, level.n, bq).delta_plus)
            else:
                values.append(nan)
        return values, (False, True, False), False

    try:
        coeffs = texture_coefficients(params, level, bq)
    except DegenerateStateError:
        values = [nan] * len(observables)
        return values, (True, False, False), False
    # within float reach of an R (branch cut), GR (Cz = 0) or SI (Cy = 0) point
    on_boundary = min(bq.distances(coeffs.c_z, coeffs.c_y)) < _BOUNDARY_RTOL

    gp = None
    values = []
    for obs in observables:
        if obs == "thetaT":
            try:
                values.append(tilting_angle(coeffs).theta_t)
            except UndefinedTiltError:
                values.append(nan)
        elif obs == "deltaMinus" or obs == "deltaPlus":
            if gp is None:
                gp = gaps(params, level.n, bq)
            values.append(gp.delta_minus if obs == "deltaMinus" else gp.delta_plus)
        elif obs == "imE":
            values.append(eigen_solution(params, level, bq).im_energy)
        elif obs == "CtZ":
            values.append(coeffs.c_z)
        elif obs == "CtY":
            values.append(coeffs.c_y)
        elif obs in ("nWzx", "nWyx"):
            if on_boundary:
                values.append(nan)  # direction undefined on the boundary
            else:
                values.append(_node_sum_winding(params, level, obs[2:], bq))
        else:  # pragma: no cover - schema validated upstream
            raise SweepSpecError(f"unknown observable {obs!r}")
    return values, (False, False, on_boundary), not on_boundary


def _spot_check(spec: SweepSpec, columns, rows, winding_rows) -> None:
    """Re-derive a deterministic 1% subsample of windings via the integral."""
    if not winding_rows or spec.spot_check_fraction <= 0.0:
        return
    count = max(1, round(spec.spot_check_fraction * len(winding_rows)))
    picks = random.Random(_SPOT_CHECK_SEED).sample(range(len(winding_rows)), min(count, len(winding_rows)))
    planes = [obs for obs in spec.observables if obs in ("nWzx", "nWyx")]
    for pick in sorted(picks):
        row_index, params, level = winding_rows[pick]
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

    The boundary is solved for the first axis with a closed form; the other
    axes are sampled on their grids. Family R adds one curve per level.
    """
    solve_axis = next((a for a in spec.axes if a.name in SOLVABLE), None)
    if solve_axis is None:
        return (("note",), [("no closed-form axis for overlay",)])
    other_axes = [a for a in spec.axes if a is not solve_axis]
    level_column = ("n",) if family == "R" else ()
    columns = tuple(a.name for a in other_axes) + level_column + (solve_axis.name, "valid")
    positive_levels = sorted({lvl.n for lvl in spec.levels if lvl.n >= 1})
    levels = positive_levels if family == "R" else [None]
    out: list[tuple] = []
    for coords in itertools.product(*(a.values() for a in other_axes)):
        prefix = [float(value) for value in coords]
        params = spec.base
        for axis, value in zip(other_axes, prefix):
            params = params.with_value(axis.name, value)
        for n in levels:
            try:
                if family == "R":
                    point = boundary_R(params, n, solve_axis.name)
                elif family == "GR":
                    point = boundary_GR(params, solve_axis.name,
                                        n=positive_levels[0] if positive_levels else None)
                else:
                    point = boundary_SI(params, solve_axis.name)
                value, valid = point.value, point.valid
            except NoBoundaryError:
                value, valid = math.nan, False
            row = list(prefix)
            if family == "R":
                row.append(n)
            row.extend([value, valid])
            out.append(tuple(row))
    return (columns, out)
