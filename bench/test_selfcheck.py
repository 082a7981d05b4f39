"""Fast self-check of the benchmark harness (standard library and numpy only).

    python3 bench/test_selfcheck.py

Runs every workload on tiny inputs with tracing off and on, checks that the
metric names match BENCHMARK.json, and shows that every output check fails
on a deliberately corrupted output, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def setUpModule():
    run._import_package()  # nhjc from src/ of this checkout


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    """Replace one cell of a CSV written by the sweep (row 0 = first data row)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(edit(float(cells[i])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _failing(checks) -> set[str]:
    return {c.name for c in checks if not c.passed}


class Tiny:
    """One tiny round of a workload, kept for the corruption tests."""

    name = ""

    @classmethod
    def setUpClass(cls):
        cls.tmp = run.ROOT / ".bench_tmp" / f"selfcheck-{cls.name}"
        cls.tmp.mkdir(parents=True, exist_ok=True)
        cls.workload = WORKLOADS[cls.name](run.ROOT, cls.tmp, SEED, tiny=True)
        _, cls.failed, cls.out = cls.workload.run_round()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def setUp(self):
        # each test corrupts a private copy of the round's output files
        self.work = self.tmp / self.id().rsplit(".", 1)[-1]
        self.work.mkdir()
        self.addCleanup(shutil.rmtree, self.work, True)
        self.copy = {}
        for key, value in self.out.items():
            if isinstance(value, Path):
                for f in value.parent.glob(value.name + "*"):
                    shutil.copy(f, self.work / f.name)
                value = self.work / value.name
            self.copy[key] = value

    def test_round_passes(self):
        self.assertEqual(self.failed, 0)
        checks = self.workload.check(self.out)
        self.assertTrue(checks)
        self.assertEqual(_failing(checks), set())


class PlaneWinding(Tiny, unittest.TestCase):
    name = "plane_winding"

    def _fails(self, row, column, edit, expected):
        _edit_csv(self.copy["plane.csv"], row, column, edit)
        self.assertIn(expected, _failing(self.workload.check(self.copy)))

    def _regular_row(self):
        header, table = oracle.read_table(self.out["plane.csv"])
        return int(next(i for i, r in enumerate(table) if r[header.index("on_boundary")] == 0))

    def test_magnitude(self):
        self._fails(self._regular_row(), "nWzx", lambda v: 2 * v, "|nWzx| = n off the boundaries")

    def test_sign(self):
        self._fails(self._regular_row(), "nWzx", lambda v: -v, "sign(nWzx) = -sign(C) from eig")

    def test_unexplained_flip(self):
        header, table = oracle.read_table(self.out["plane.csv"])
        g_count = self.workload.data["axes"][1]["count"]
        # first g column (g = 0.001): no R point in range, GR at Gamma ~ 3e-4,
        # so a sign change between the last two Gamma rows is unexplained
        row = (len(table) // g_count - 1) * g_count
        self._fails(row, "nWzx", lambda v: -v, "nWzx flips bracketed by R/GR")

    def test_row_count(self):
        path = self.copy["plane.csv"]
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        self.assertIn("row count", _failing(self.workload.check(self.copy)))

    def test_gap(self):
        self._fails(3, "deltaMinus", lambda v: v + 1e-9, "deltaMinus vs eig")

    def test_overlay(self):
        _edit_csv(Path(f"{self.copy['plane.csv']}.overlay.GR.csv"), 4, "Gamma", lambda v: v * (1 + 1e-9))
        self.assertIn("overlay GR = closed form", _failing(self.workload.check(self.copy)))

    def test_sampled_winding(self):
        header, table = oracle.read_table(self.out["plane.csv"])
        path = self.copy["plane.csv"]
        lines = path.read_text().splitlines()
        i = header.index("nWzx")
        # flip every winding: only the sampled unwrapping check and the sign
        # check can tell, the magnitudes stay n
        for k in range(1, len(lines)):
            cells = lines[k].split(",")
            if cells[i] != "nan":
                cells[i] = str(-int(float(cells[i])))
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        self.assertIn("sampled nWzx by phase unwrapping", _failing(self.workload.check(self.copy)))


class CoeffSweep(Tiny, unittest.TestCase):
    name = "coeff_sweep"

    def _fails(self, key, row, column, edit, expected):
        _edit_csv(self.copy[f"{key}.csv"], row, column, edit)
        self.assertIn(expected, _failing(self.workload.check(self.copy)))

    def test_energy_columns(self):
        for column in ("imE", "deltaMinus", "deltaPlus"):
            with self.subTest(column=column):
                self._fails("plane", 5, column, lambda v: v + 1e-9, f"plane: {column} vs eig")
                shutil.copy(self.out["plane.csv"], self.copy["plane.csv"])

    def test_coefficients(self):
        self._fails("plane", 7, "CtY", lambda v: -v, "plane: CtY vs eigenvector")
        self._fails("tilt", 7, "CtZ", lambda v: v * (1 + 1e-9), "tilt: CtZ vs eigenvector")

    def test_theta(self):
        self._fails("tilt", 3, "thetaT", lambda v: v + 1e-12, "tilt: thetaT = atan(CtY/CtZ)")

    def test_si_crossing(self):
        # an extra CtY sign change on the first level, away from gamma_SI
        self._fails("tilt", 0, "CtY", lambda v: -v if v else 1.0, "CtY crosses zero once, at gamma_SI")

    def test_overlay(self):
        path = Path(f"{self.copy['tilt.csv']}.overlay.R.csv")
        _edit_csv(path, 0, "valid", lambda v: 1 - v)
        self.assertIn("tilt: overlay R = closed form", _failing(self.workload.check(self.copy)))


class CliSession(Tiny, unittest.TestCase):
    name = "cli_session"

    def _fails(self, key, edit):
        self.assertTrue(_failing(self.workload.check({key: edit(self.out[key])})))

    def test_verify(self):
        self._fails("verify", lambda text: text.replace("[PASS]", "[FAIL]", 1))
        self._fails("verify", lambda text: "\n".join(text.splitlines()[1:]))

    def test_winding(self):
        def edit(text):
            data = json.loads(text)
            data["planes"]["yx"]["integral"] *= -1
            return json.dumps(data)
        self._fails("winding", edit)

    def test_eigen(self):
        def edit(text):
            data = json.loads(text)
            data["energy"]["im"] *= 1 + 1e-9
            return json.dumps(data)
        self._fails("eigen", edit)

    def test_texture_parity(self):
        def edit(text):
            lines = text.splitlines()
            cells = lines[100].split(",")
            cells[3] = repr(float(cells[3]) + 1e-6)
            lines[100] = ",".join(cells)
            return "\n".join(lines)
        self._fails("texture", edit)

    def test_nonzero_exit_counts_as_failed(self):
        bad = WORKLOADS[self.name](run.ROOT, self.tmp, SEED, tiny=True)
        bad.calls = [("winding", ["winding", "--n", "-1", "--params", bad.params_path])]
        with contextlib.redirect_stderr(io.StringIO()):
            attempted, failed, out = bad.run_round()
        self.assertEqual((attempted, failed, out), (1, 1, {}))


def tearDownModule():
    try:
        (run.ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass  # a benchmark run is using it


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_benchmark_json_matches_harness(self):
        from tracing import PER_LAYER

        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, PER_LAYER)
        self.assertEqual(self.spec["command"], ["python3", "bench/run.py"])

    def test_every_workload_reports_every_metric(self):
        for name in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    result = run.run_workload(name, SEED, 0, trace, tiny=True)
                    self.assertTrue(result["correct"], result["checks"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [m["name"] for m in self.spec["per_layer" if trace else "end_to_end"]]
                    self.assertEqual(list(result["metrics"]), names)
                    values = [m["value"] for m in result["metrics"].values()]
                    self.assertTrue(all(math.isfinite(v) for v in values))
                    if not trace:
                        self.assertTrue(all(v > 0 for v in values))

    def test_refuses_without_the_package(self):
        bare = run.ROOT / ".bench_tmp" / "selfcheck-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "coeff_sweep",
                                   "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                                  timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
