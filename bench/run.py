"""nhjc benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py                                  # all three workloads
    python3 bench/run.py --workload plane_winding --seed 7 --seconds 40 --trace 0

Run from anywhere; the package is imported from src/ next to this directory
and nowhere else. A run repeats whole rounds of its workload's operations
until the round boundary nearest to --seconds (at least one round), checks the
first round's outputs against independent computations (bench/oracle.py)
and every later round for byte-identical output, and prints one line per
metric, a record line, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics: the mean round time, and the
median of the fresh-interpreter set-ups timed between the rounds. --trace 1
spends half the time on untraced rounds and half on traced ones, and reports
the per-layer metrics (median over traced rounds) plus trace.overhead_s, the
traced minus the untraced mean round time. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}
# fresh-interpreter set-ups are spread between the rounds, about this share of
# the run's time, and at least SETUP_MIN of them
SETUP_SHARE = 0.1
SETUP_MIN = 11
_SETUP_TIMER = "import time\n_t = time.perf_counter()\n{code}\nprint(time.perf_counter() - _t)\n"


def _import_package():
    """Import nhjc from this checkout's src/; exit 2 if it is not there."""
    if not (SRC / "nhjc" / "__init__.py").is_file():
        sys.exit(f"error: no nhjc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nhjc

    if SRC.resolve() not in Path(nhjc.__file__).resolve().parents:
        sys.exit(f"error: nhjc was imported from {nhjc.__file__}, not from {SRC}")
    return nhjc


def _git_sha() -> str:
    """HEAD of the checkout's own repository, or 'unknown' outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": _git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def measure_setup(code: str) -> float:
    """Time of `code` (import nhjc and load inputs) in a fresh interpreter."""
    from workloads import package_env

    out = subprocess.run([sys.executable, "-c", _SETUP_TIMER.format(code=code)], cwd=ROOT,
                         env=package_env(ROOT), capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


class Run:
    """Rounds of one workload and what they produced."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.checks = []
        self.reference = None  # fingerprint of the first checked round
        self.mismatched_rounds = 0
        self.peak_rss_kb = 0
        self.setup_times: list[float] = []

    def rounds(self, seconds: float, after_round=None, setup_code=None) -> list[float]:
        """Run rounds until the round boundary nearest to `seconds` (at least
        one round); return their wall times. With `setup_code`, fresh-
        interpreter set-ups are timed between the rounds (into
        self.setup_times), so that they and the rounds sample the same
        stretch of the machine's speed."""
        times, start = [], time.perf_counter()
        share = SETUP_SHARE if setup_code else 0.0
        while True:
            t0 = time.perf_counter()
            attempted, failed, out = self.workload.run_round()
            times.append(time.perf_counter() - t0)
            self.attempted += attempted
            self.failed += failed
            if after_round:
                after_round()
            self._check(out, failed)
            while sum(self.setup_times) < share * sum(times):
                self.setup_times.append(measure_setup(setup_code))
            if time.perf_counter() - start + 0.5 * (1 + share) * statistics.median(times) > seconds:
                break
        while setup_code and len(self.setup_times) < SETUP_MIN:
            self.setup_times.append(measure_setup(setup_code))
        return times

    def _check(self, out: dict, failed: int) -> None:
        if not self.peak_rss_kb:  # high-water mark of the first round, before any check
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if failed:
            self.checks += self.workload.check(out)
            return
        if self.reference is None:
            self.checks += self.workload.check(out)
            self.reference = self.workload.fingerprint(out)
        elif self.workload.fingerprint(out) != self.reference:
            self.mismatched_rounds += 1

    @property
    def correct(self) -> bool:
        return all(c.passed for c in self.checks) and not self.mismatched_rounds


def run_workload(name: str, seed: int, seconds: int, trace: int, tiny: bool = False) -> dict:
    from tracing import PER_LAYER, Tracer, layer_metrics, merge
    from workloads import WORKLOADS

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[name]
        workload = cls(ROOT, tmp, seed, tiny=tiny)
        run = Run(workload)
        if not trace:
            times = run.rounds(seconds, setup_code=cls.setup_code)
            # the mean, not the median: the machine's speed switches between
            # states, and a median of rounds jumps with whichever state held
            # more than half of the run
            wall = statistics.fmean(times)
            rss_kb = workload.peak_rss_kb or run.peak_rss_kb
            values = {"setup_s": statistics.median(run.setup_times), "wall_s": wall,
                      "rows_per_s": workload.rows / wall, "peak_rss_mb": rss_kb / 1024.0}
            units = END_TO_END
            info = (f"{len(times)} rounds of {min(times):.4g}-{max(times):.4g} s, median "
                    f"{statistics.median(times):.4g} s; {len(run.setup_times)} set-ups of "
                    f"{min(run.setup_times):.4g}-{max(run.setup_times):.4g} s")
        else:
            untraced = run.rounds(0.5 * seconds)
            tracer = Tracer().install()
            workload.trace_children = True
            per_round = []

            def collect():
                stats = merge(tracer.snapshot(), workload.child_stats)
                workload.child_stats = {}
                per_round.append(layer_metrics(stats, workload.sweep_rows))

            traced = run.rounds(0.5 * seconds, after_round=collect)
            tracer.uninstall()
            values = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
            values["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
            units = PER_LAYER
            info = f"{len(untraced)} untraced and {len(traced)} traced rounds"
        return {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "checks": [[c.name, c.passed, c.detail] for c in run.checks],
            "mismatched_rounds": run.mismatched_rounds,
            "info": info,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _print_result(name: str, result: dict) -> None:
    for check_name, passed, detail in result.get("checks", []):
        print(f"[{name}] {'PASS' if passed else 'FAIL'} {check_name}: {detail}")
    if result.get("mismatched_rounds"):
        print(f"[{name}] FAIL {result['mismatched_rounds']} rounds differ from the first round's output")
    print(f"[{name}] {result['info']}")
    print(f"[{name}] attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, help="workload seed (default: nhjc.verify.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=int, default=40, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nhjc = _import_package()
    import nhjc.verify

    seed = nhjc.verify.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload != "all":
        result = run_workload(args.workload, seed, args.seconds, args.trace)
        _print_result(args.workload, result)
        print("record: " + json.dumps(_record(args.workload, seed, args.seconds, args.trace)))
        summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(summary))
        return 0

    # every workload in its own fresh process, one after another
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
