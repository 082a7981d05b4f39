"""The one batching policy of nhjc.params (SAMPLE_BUDGET, chunks, batch_index)
through its budget: at 17 samples a point whose blocks and scalars alone are
held (SCALAR_SAMPLES = 16) fills a chunk, so every pass over a grid takes one
point per chunk (the node and winding checks up to eight draws at small n)."""

import collections
import sys

import numpy as np
import pytest

import nhjc.params
import nhjc.sweep
import nhjc.topology
import nhjc.verify
from nhjc import Axis, DegenerateStateError, LevelIndex, SweepSpec, run_sweep
from nhjc.cli import main
from nhjc.params import PARAM_NAMES, ParamGrid
from nhjc.topology import Windings
from nhjc.verify import _CHECKS, DEFAULT_SEED, draw_sets
from conftest import make_reference

ONE_POINT = 17

# the six passes over a grid, by the function that asks for their chunks
PASSES = {"_write_table", "_grid_table", "_spot_check", "_integrals", "draw_sets", "_levels"}

PLANE = SweepSpec(base=make_reference(Gamma=0.0), axes=(Axis("Gamma", 0.0, 0.12, 31), Axis("g", 0.001, 0.1, 26)),
                  levels=(LevelIndex(2, -1), LevelIndex(3, 1)), observables=("thetaT", "deltaPlus", "nWzx", "nWyx"),
                  spot_check_fraction=0.3)


@pytest.fixture
def chunk_counts(monkeypatch):
    """{pass: [chunks of each call]}, counted for every caller of params.chunks."""
    counts, chunks = collections.defaultdict(list), nhjc.params.chunks

    def counted(*args):
        parts = chunks(*args)
        counts[sys._getframe(1).f_code.co_name].append(len(parts))
        return parts

    for module in (nhjc.sweep, nhjc.topology, nhjc.verify):
        monkeypatch.setattr(module, "chunks", counted)
    return counts


def _outputs(tmp_path, capsys):
    """The plane's CSV and the report of `nhjc verify --draws 60 --n-max 5`."""
    run_sweep(PLANE).to_csv(tmp_path / "plane.csv")
    assert main(["verify", "--draws", "60", "--n-max", "5"]) == 0
    return (tmp_path / "plane.csv").read_bytes(), capsys.readouterr().out


def test_one_point_chunks_write_the_same_bytes(tmp_path, capsys, monkeypatch, chunk_counts):
    default = _outputs(tmp_path, capsys)
    chunk_counts.clear()
    monkeypatch.setattr(nhjc.params, "SAMPLE_BUDGET", ONE_POINT)
    assert _outputs(tmp_path, capsys) == default
    assert set(chunk_counts) == PASSES
    # each pass split its batch: the grid's 806 points, its 1 612 rows, ...
    assert all(max(counts) > 1 for counts in chunk_counts.values())
    assert max(chunk_counts["_grid_table"]) == 31 * 26 and max(chunk_counts["_write_table"]) == 2 * 31 * 26


def _injected(monkeypatch, module, name, target: dict):
    """module.name raising DegenerateStateError at the point with the target's
    parameters, with that point's index into the batch it was given."""
    original = getattr(module, name)

    def broken(params, *args):
        hit = np.flatnonzero(np.logical_and.reduce([np.ravel(getattr(params, k)) == v for k, v in target.items()]))
        if hit.size:
            raise DegenerateStateError("injected", index=int(hit[0]))
        return original(params, *args)

    monkeypatch.setattr(module, name, broken)


def _plane_point(index: int) -> dict:
    grid = ParamGrid.product(PLANE.base, {a.name: a.values() for a in PLANE.axes})
    return {name: getattr(grid, name)[index].item() for name in ("Gamma", "g")}


def test_an_error_in_a_late_chunk_of_the_grid_table_names_its_point(monkeypatch):
    target = _plane_point(700)
    monkeypatch.setattr(nhjc.params, "SAMPLE_BUDGET", ONE_POINT)
    _injected(monkeypatch, nhjc.sweep, "branch_coefficients", target)
    with pytest.raises(DegenerateStateError) as info:
        run_sweep(PLANE)
    assert str(info.value) == f"injected (at Gamma={target['Gamma']!r}, g={target['g']!r}, n=2, eta=-1)"


def test_an_error_in_a_late_chunk_of_the_spot_check_names_its_point(monkeypatch):
    spec = SweepSpec(base=PLANE.base, axes=PLANE.axes, levels=PLANE.levels[:1], observables=("nWzx",),
                     spot_check_fraction=1.0)
    table = run_sweep(spec).table
    target = _plane_point(700)
    assert not np.isnan(table["nWzx"][700])  # a node-sum point: the spot check picks it
    monkeypatch.setattr(nhjc.params, "SAMPLE_BUDGET", ONE_POINT)
    _injected(monkeypatch, nhjc.topology, "texture_closed_form", target)
    with pytest.raises(DegenerateStateError) as info:
        run_sweep(spec)
    assert str(info.value) == f"injected (at Gamma={target['Gamma']!r}, g={target['g']!r}, n=2, eta=-1)"


def test_an_error_in_a_late_chunk_of_the_integrals_carries_its_point(monkeypatch):
    grid = ParamGrid.product(PLANE.base, {"Gamma": np.linspace(0.01, 0.05, 10)})
    windings = Windings(grid.take(np.arange(10)[:, None]), LevelIndex(2, -1))
    monkeypatch.setattr(nhjc.params, "SAMPLE_BUDGET", ONE_POINT)
    _injected(monkeypatch, nhjc.topology, "texture_closed_form", {"Gamma": grid.Gamma[7].item()})
    with pytest.raises(DegenerateStateError) as info:
        windings.integrals(["zx"])
    assert info.value.index == 7


def test_an_error_in_a_late_chunk_of_a_verify_check_names_its_draw(monkeypatch):
    draws = draw_sets(np.random.default_rng(DEFAULT_SEED), 60, 4)
    target = {name: getattr(draws, name)[40, 0].item() for name in PARAM_NAMES}
    monkeypatch.setattr(nhjc.params, "SAMPLE_BUDGET", ONE_POINT)
    _injected(monkeypatch, nhjc.verify, "eigen_solution", target)
    with pytest.raises(DegenerateStateError) as info:
        _CHECKS["eigen"](draws, range(1, 5))
    values = ", ".join(f"{name}={value!r}" for name, value in target.items())
    assert str(info.value) == f"injected (draw 40: {values}, n=1, eta=-1)" and info.value.index == 40
