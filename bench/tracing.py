"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces every public function of the nhjc layer modules
(the names in each module's ``__all__``, plus ``cli.main``) with a timing
wrapper, in every nhjc module namespace that binds it: ``nodes`` is bound in
nhjc, nhjc.texture, nhjc.sweep, nhjc.topology and nhjc.verify, and all five
names get the same wrapper, so calls are counted once whichever module makes
them. ``ModelParams.with_value`` and ``SweepResult.to_csv`` are wrapped on
their classes. The source under src/ is not touched.

Spans are aggregated in memory as they close, per span name: call count,
total (inclusive) time and self time, which is total time minus the time of
the wrapped calls made inside it. The shipped 121 x 101 plane sweep closes
about 2.5 million spans, so keeping each one would cost hundreds of MB; the
aggregates are what the metrics need. ``snapshot()`` hands them out once at the end of a round.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types

LAYERS = ("params", "oscillator", "spectrum", "texture", "topology",
          "boundaries", "sweep", "verify", "cli")
BOUNDARY_FUNCTIONS = ("boundary_R", "boundary_GR", "boundary_SI")


def _nodes_name(args, kwargs) -> str:
    component = args[2] if len(args) > 2 else kwargs.get("component")
    return "texture.nodes_x" if component == "x" else "texture.nodes_zy"


def _main_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0] if argv else 'none'}"


def _grid_points(result, args, kwargs) -> int:
    return len(result)


def _csv_bytes(result, args, kwargs) -> int:
    self, path = args[0], args[1]
    paths = [path] + [f"{path}.overlay.{family}.csv" for family in self.overlays]
    return sum(os.path.getsize(p) for p in paths)


# spans named by their arguments, and spans that also count a size
_NAMERS = {("texture", "nodes"): _nodes_name, ("cli", "main"): _main_name}
_SIZERS = {"topology.winding_grid": _grid_points, "sweep.to_csv": _csv_bytes}


class Tracer:
    """Installs the wrappers and holds the aggregates: name -> [calls, total_s, self_s, size]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._children = [0.0]  # time of wrapped calls inside each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, namer=None, sizer=None):
        stats, children, clock = self.stats, self._children, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                key = namer(args, kwargs) if namer else name
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
            if sizer:
                rec[3] += sizer(result, args, kwargs)
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"nhjc.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("nhjc")] + list(modules.values())
        wrappers = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", None) or ["main"]  # cli has no __all__
            for attr in public:
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(fn, name, _NAMERS.get((layer, attr)), _SIZERS.get(name))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._replace(namespace, attr, wrappers[value])
        for cls, attr, name in ((modules["params"].ModelParams, "with_value", "params.with_value"),
                                (modules["sweep"].SweepResult, "to_csv", "sweep.to_csv")):
            self._replace(cls, attr, self._wrap(vars(cls)[attr], name, sizer=_SIZERS.get(name)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict[str, list]:
        """The aggregates so far, then start afresh."""
        out = {k: list(v) for k, v in self.stats.items()}
        self.stats.clear()  # in place: the wrappers hold this dict
        return out


def merge(into: dict, stats: dict) -> dict:
    for key, rec in stats.items():
        have = into.setdefault(key, [0, 0.0, 0.0, 0])
        for i, v in enumerate(rec):
            have[i] += v
    return into


# name -> unit of every per-layer metric, in report order
PER_LAYER = {}
for _fn in ("oscillator.phi_ratio", "oscillator.phi_pair", "oscillator.hermite_roots",
            "params.with_value", "spectrum.block_quantities", "spectrum.eigen_solution",
            "spectrum.gaps", "texture.texture_coefficients", "texture.nodes_x",
            "texture.nodes_zy", "texture.texture_closed_form", "topology.winding_node_sum",
            "topology.winding_grid", "topology.winding_integral", "boundaries"):
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
PER_LAYER.update({
    "oscillator.hermite_roots.total_s": "s",
    "texture.nodes_x.total_s": "s",
    "spectrum.block_quantities.per_row": "calls/row",
    "texture.texture_from_wavefunctions.self_s": "s",
    "topology.winding_grid.points": "count",
    "topology.winding_report.total_s": "s",
    "sweep.run_sweep.total_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.to_csv.total_s": "s",
    "sweep.to_csv.bytes": "bytes",
    "verify.run_suite.total_s": "s",
    "verify.draw_params.calls": "count",
    "verify.draw_params.total_s": "s",
    "verify.boundary_margin.calls": "count",
    "verify.draw_params.accept_ratio": "ratio",
    "cli.main.winding.total_s": "s",
    "cli.main.eigen.total_s": "s",
    "cli.main.texture.total_s": "s",
    "cli.main.verify.total_s": "s",
    "trace.overhead_s": "s",
})


def layer_metrics(stats: dict, rows: int) -> dict[str, float]:
    """Every per-layer metric (except trace.overhead_s) from one round's
    aggregates; a layer the workload never calls reads 0."""
    def get(name, field):
        return stats.get(name, [0, 0.0, 0.0, 0])[field]

    boundaries = [sum(get(f"boundaries.{f}", i) for f in BOUNDARY_FUNCTIONS) for i in range(4)]
    out = {}
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if name == "boundaries":
            out[metric] = boundaries[0] if field == "calls" else boundaries[2]
        elif field == "calls":
            out[metric] = get(name, 0)
        elif field == "total_s":
            out[metric] = get(name, 1)
        elif field == "self_s":
            out[metric] = get(name, 2)
        elif field in ("points", "bytes"):
            out[metric] = get(name, 3)
    out["spectrum.block_quantities.per_row"] = get("spectrum.block_quantities", 0) / rows if rows else 0.0
    margins = get("verify.boundary_margin", 0)
    out["verify.draw_params.accept_ratio"] = get("verify.draw_params", 0) / margins if margins else 0.0
    out.pop("trace.overhead_s", None)
    return out
