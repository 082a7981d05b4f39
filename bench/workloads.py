"""The three benchmark workloads.

Each workload builds its inputs in ``__init__``, runs one round of its
operations through the public nhjc API or CLI in ``run_round``, and checks a
round's outputs with the independent computations of ``oracle``. A round is
always the same operations, so a run attempts whole rounds.

``tiny=True`` shrinks every input (grids, draws, levels) so the self-check
can exercise each workload and each output check in seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent


def package_env(root: Path) -> dict:
    """Environment for a child interpreter that imports nhjc from root/src."""
    paths = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Workload:
    name = ""
    why = ""
    # Python run in a fresh interpreter and timed for setup_s
    setup_code = ""

    def __init__(self, root: Path, tmp: Path, seed: int, tiny: bool = False):
        self.root, self.tmp, self.seed, self.tiny = root, tmp, seed, tiny
        self.trace_children = False
        self.child_stats: dict = {}  # per-layer aggregates reported by child processes
        self.sweep_rows = 0  # grid point x level rows produced by run_sweep in one round
        self.peak_rss_kb = 0  # largest child's peak resident set, where the work runs in children

    def _ops(self):
        """(name, callable) pairs of one round; a callable may use the
        outputs of earlier ones through self.out."""
        raise NotImplementedError

    def run_round(self) -> tuple[int, int, dict]:
        """One round: (attempted, failed, outputs). An operation that raises
        counts as failed and its traceback goes to stderr."""
        self.out, failed = {}, 0
        ops = self._ops()
        for name, op in ops:
            try:
                self.out[name] = op()
            except Exception:  # the benchmark reports failures and carries on
                failed += 1
                print(f"[{self.name}] operation {name} failed:", file=sys.stderr)
                traceback.print_exc()
        return len(ops), failed, self.out

    def check(self, out: dict) -> list[oracle.Check]:
        raise NotImplementedError

    def fingerprint(self, out: dict) -> str:
        raise NotImplementedError


class _SweepWorkload(Workload):
    """Sweeps through run_sweep and SweepResult.to_csv, one CSV per sweep."""

    def _load(self, config: str, observables=None, counts=None) -> dict:
        with open(self.root / "configs" / config, encoding="utf-8") as fh:
            data = json.load(fh)
        if observables:
            data["observables"] = observables
        if counts:
            for axis, count in zip(data["axes"], counts):
                axis["count"] = count
        return data

    @staticmethod
    def _count_rows(data) -> int:
        count = len(data["levels"])
        for axis in data["axes"]:
            count *= axis["count"]
        return count

    def _sweep_ops(self, key: str, spec):
        import nhjc.sweep

        path = self.tmp / f"{key}.csv"

        def write():
            self.out[f"{key}.run"].to_csv(path)
            return path

        return [(f"{key}.run", lambda: nhjc.sweep.run_sweep(spec)), (f"{key}.csv", write)]

    def _files(self, out: dict) -> list[Path]:
        files = []
        for key, path in out.items():
            if key.endswith(".csv"):
                files.append(path)
                files += sorted(path.parent.glob(path.name + ".overlay.*.csv"))
        return files

    def fingerprint(self, out: dict) -> str:
        return _sha(*(p.read_bytes() for p in self._files(out)))

    def _table(self, out, key):
        return oracle.read_table(out[f"{key}.csv"])


class PlaneWinding(_SweepWorkload):
    name = "plane_winding"
    why = ("the paper's (Gamma, g) phase diagram with a winding column: the sigma_x node "
           "solver does almost all the work")
    setup_code = ("import nhjc; from nhjc.sweep import SweepSpec; "
                  "SweepSpec.load('configs/sweep_gamma_g_plane.json')")
    # the shipped 121 x 101 plane on every fourth Gamma and g: a round of about a second
    COUNTS = (31, 26)

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        from nhjc.sweep import SweepSpec

        self.data = self._load("sweep_gamma_g_plane.json", counts=(13, 11) if self.tiny else self.COUNTS)
        self.spec = SweepSpec.from_dict(self.data)
        self.base = oracle.base_params(self.data["params"])
        self.rows = self.sweep_rows = self._count_rows(self.data)

    def _ops(self):
        return self._sweep_ops("plane", self.spec)

    def check(self, out):
        if "plane.csv" not in out:
            return []
        header, table = self._table(out, "plane")
        counts = [a["count"] for a in self.data["axes"]]
        expect = self.rows
        checks = [oracle.Check("row count", len(table) == expect,
                               f"{len(table)} rows, expected {' x '.join(map(str, counts))} = {expect}")]
        checks += oracle.check_winding_column(self.base, header, table)
        checks.append(oracle.check_flips_bracketed(self.base, header, table))
        checks += oracle.check_spectrum_columns(self.base, header, table)
        checks += oracle.check_overlays(self.base, out["plane.csv"], self.data["overlays"], "Gamma",
                                        [lv["n"] for lv in self.data["levels"]])
        checks.append(oracle.check_sampled_windings(self.base, header, table, self.seed))
        return checks


class CoeffSweep(_SweepWorkload):
    name = "coeff_sweep"
    why = ("the same plane with the six non-winding columns plus the 10-level tilt ladder: "
           "per-point scalar work, no node solver")
    setup_code = ("import nhjc; from nhjc.sweep import SweepSpec; "
                  "SweepSpec.load('configs/sweep_gamma_g_plane.json'); "
                  "SweepSpec.load('configs/sweep_tilt_vs_gamma.json')")
    OBSERVABLES = ["thetaT", "deltaMinus", "deltaPlus", "imE", "CtZ", "CtY"]
    # the plane on every second Gamma and g; the tilt ladder as shipped
    COUNTS = (61, 51)

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        from nhjc.sweep import SweepSpec

        self.plane = self._load("sweep_gamma_g_plane.json", self.OBSERVABLES,
                                counts=(13, 11) if self.tiny else self.COUNTS)
        self.tilt = self._load("sweep_tilt_vs_gamma.json", counts=(25,) if self.tiny else None)
        self.specs = {"plane": SweepSpec.from_dict(self.plane), "tilt": SweepSpec.from_dict(self.tilt)}
        self.rows = self.sweep_rows = self._count_rows(self.plane) + self._count_rows(self.tilt)

    def _ops(self):
        return self._sweep_ops("plane", self.specs["plane"]) + self._sweep_ops("tilt", self.specs["tilt"])

    def check(self, out):
        checks = []
        for key, data, axis in (("plane", self.plane, "Gamma"), ("tilt", self.tilt, "gamma")):
            if f"{key}.csv" not in out:
                continue
            base = oracle.base_params(data["params"])
            header, table = self._table(out, key)
            checks += [oracle.Check(f"{key}: {c.name}", c.passed, c.detail)
                       for c in oracle.check_spectrum_columns(base, header, table)]
            checks += [oracle.Check(f"{key}: {c.name}", c.passed, c.detail)
                       for c in oracle.check_overlays(base, out[f"{key}.csv"], data["overlays"], axis,
                                                      [lv["n"] for lv in data["levels"]])]
            if key == "tilt":
                checks.append(oracle.check_si_crossings(base, header, table))
        return checks


class CliSession(Workload):
    name = "cli_session"
    why = ("fresh nhjc processes: the seeded invariant suite, winding at n = 100, eigen and texture at "
           "n = 200; import and cold hermite_roots paid on every call")
    setup_code = "import nhjc.cli; nhjc.params.load_params('configs/reference.json')"

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        # run_suite on a quarter of its 200 default draws; winding at n = 200
        # alone takes 18 s, too long for a round
        draws, n_max, self.winding_n, self.top = (8, 3, 5, 8) if self.tiny else (50, 8, 100, 200)
        self.params_path = "configs/reference.json"
        with open(self.root / self.params_path, encoding="utf-8") as fh:
            self.base = oracle.base_params(json.load(fh))
        params = ["--params", self.params_path]
        self.calls = [
            ("verify", ["verify", "--draws", str(draws), "--n-max", str(n_max), "--seed", str(self.seed)]),
            ("winding", ["winding", "--n", str(self.winding_n), "--plane", "both", "--method", "both", *params]),
            ("eigen", ["eigen", "--n", str(self.top), *params]),
            ("texture", ["texture", "--n", str(self.top), *params]),
        ]
        # output records: nine invariant checks, two winding plane reports,
        # one eigen record and 801 texture rows
        self.rows = 9 + 2 + 1 + 801

    def _call(self, index: int, argv: list[str]) -> str:
        out_path, stats_path = self.tmp / f"cli{index}.out", self.tmp / f"cli{index}.stats.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py")]
        if self.trace_children:
            cmd += ["--trace", str(stats_path)]
        cmd += ["--", *argv]
        with open(out_path, "wb") as out_fh:
            proc = subprocess.Popen(cmd, cwd=self.root, env=package_env(self.root), stdout=out_fh)
            # wait4 reaps the child and reports its own peak resident set
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"nhjc {' '.join(argv)} exited {proc.returncode}")
        if self.trace_children:
            from tracing import merge

            with open(stats_path, encoding="utf-8") as fh:
                merge(self.child_stats, json.load(fh))
        return out_path.read_text(encoding="utf-8")

    def _ops(self):
        return [(key, lambda i=i, argv=argv: self._call(i, argv)) for i, (key, argv) in enumerate(self.calls)]

    def check(self, out):
        checks = []
        if "verify" in out:
            checks.append(oracle.check_verify_text(out["verify"]))
        if "winding" in out:
            checks.append(oracle.check_winding_json(out["winding"], self.winding_n, self.base))
        if "eigen" in out:
            checks.append(oracle.check_eigen_json(out["eigen"], self.top, self.base))
        if "texture" in out:
            checks.append(oracle.check_texture_csv(out["texture"], self.top))
        return checks

    def fingerprint(self, out):
        return _sha(*(out[k].encode() for k in sorted(out)))


WORKLOADS = {w.name: w for w in (PlaneWinding, CoeffSweep, CliSession)}
