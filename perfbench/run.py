"""Benchmark for tdcount.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instances from --seed, computes their answers
without tdcount (`references`), and runs one closed-loop client in this
process: each instance starts after the previous one returns.

A run does a fixed number of whole cycles, about S seconds of solving
at the workload's nominal cycle time.  --trace 0 calls `tdcount.cli.run`
on each file as the console script does and reports the end-to-end
metrics.  --trace 1 does half as many cycles and solves each instance
twice, once by `cli.run` and once layer by layer (`spans`); the
per-layer metrics come from the spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"  # instance files, removed when the run ends
OUT = ROOT / ".perfbench-out"  # span dumps of traced runs

INSTANCE_LIMIT_S = 60.0
LAST_START_S = 150.0  # no instance starts later than this into the run
SETUP_REPEATS = 21

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tdcount\n"
    "for p in sys.argv[2:]:\n"
    "    with open(p, 'rb') as fh:\n"
    "        fh.read()\n"
)

class InstanceTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside tdcount wraps or swallows it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout


@contextlib.contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """One benchmark run: its instance files, clock and tallies."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.labels: dict[str, int] = {}
        self.digest = hashlib.sha256()

    def prepare(self, k: int):
        """Write cycle k's files; returns (instance, path, expected lines)."""
        from references import expected_lines

        out = []
        for c, inst in enumerate(self.workload.cycle(self.seed, k)):
            path = self.work / f"{k:03d}-{c:02d}-{inst.label}{inst.suffix}"
            path.write_text(inst.text, encoding="utf-8")
            out.append((inst, path, expected_lines(inst)))
        return out

    def cycles(self, seconds: float) -> int:
        """Whole cycles that take about `seconds` at the nominal cycle
        time; fixed by the arguments, so every run does the same work."""
        return max(1, round(seconds / self.workload.cycle_s))

    def limit(self) -> float | None:
        """Time limit for the next instance, None when none may start."""
        elapsed = time.perf_counter() - self.started
        if elapsed > LAST_START_S:
            return None
        return min(INSTANCE_LIMIT_S, LAST_START_S + 20 - elapsed)

    def solve(self, inst, path, expected, limit):
        """Run `tdcount.cli.run` on one file; returns (ok, seconds)."""
        from spans import TD_SEED
        from tdcount import cli

        argv = [inst.command, str(path), "--seed", str(TD_SEED), *inst.options]
        out = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with time_limit(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = cli.run(argv)
            status = "ok" if code == 0 else f"exit {code}"
        except InstanceTimeout:
            status = "timeout"
        except Exception as exc:  # counted as a failed instance; the run goes on
            status = type(exc).__name__
        seconds = time.perf_counter() - start
        lines = out.getvalue().splitlines()
        self.attempted += 1
        self.labels[inst.label] = self.labels.get(inst.label, 0) + 1
        self.digest.update(("\n".join([inst.label, status, *lines]) + "\n").encode())
        ok = status == "ok" and lines == expected
        if status == "ok" and not ok:
            self.wrong.append(f"{path.name}: got {lines[:2]} want {expected[:2]}")
        if not ok:
            self.failed += 1
        return ok, seconds


def measure_setup(paths) -> float:
    """Median wall time of a fresh interpreter that imports tdcount and
    reads the given input files."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)], check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def plain_run(run: Run, seconds: float) -> dict:
    cycle = run.prepare(0)
    setup_s = measure_setup(path for _, path, _ in cycle)
    times, ok_count, busy = [], 0, 0.0
    for k in range(run.cycles(seconds)):
        for inst, path, expected in cycle if k == 0 else run.prepare(k):
            limit = run.limit()
            if limit is None:
                break
            ok, t = run.solve(inst, path, expected, limit)
            ok_count += ok
            busy += t
            times.append(t if ok else float("inf"))
    p50 = statistics.median(times)
    print(f"instances {run.attempted}, {busy:.1f} s solving; solve_p50_s over {len(times)} samples")
    return {
        "instances_per_s": ok_count / busy,
        "solve_p50_s": p50 if p50 != float("inf") else INSTANCE_LIMIT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_solve(run: Run, tracer, totals, inst, path, expected, limit) -> bool:
    """Solve one instance layer by layer; True when the answer is right."""
    import spans

    gc.collect()
    try:
        with time_limit(limit):
            lines = spans.run_traced(tracer, inst, path, totals)
    except (InstanceTimeout, Exception):
        return False
    if lines != expected:
        run.wrong.append(f"{path.name} (traced): got {lines[:2]} want {expected[:2]}")
    return lines == expected


def traced_run(run: Run, seconds: float) -> dict:
    import spans

    cycles = run.cycles(seconds / 2)  # each instance is solved twice
    tracer = spans.Tracer()
    totals = dict.fromkeys(spans.COUNTERS, 0)
    extra = []  # per instance, traced span minus cli.run time
    for k in range(cycles):
        for c, (inst, path, expected) in enumerate(run.prepare(k)):
            limit = run.limit()
            if limit is None:
                break
            tracer.instance = f"{k}-{c}-{inst.label}"
            first = len(tracer.spans)
            # alternate which solve goes first, so that neither one always
            # finds the heap already grown by the other
            if (k + c) % 2:
                traced_ok = traced_solve(run, tracer, totals, inst, path, expected, limit)
                ok, cli_s = run.solve(inst, path, expected, limit)
            else:
                ok, cli_s = run.solve(inst, path, expected, limit)
                traced_ok = traced_solve(run, tracer, totals, inst, path, expected, limit)
            if traced_ok != ok:
                run.wrong.append(f"{path.name}: traced and CLI runs disagree on success")
            _, start, end, _, _ = tracer.spans[first]
            extra.append(end - start - cli_s)
    own = spans.self_times(tracer.spans)
    self_s: dict[str, float] = dict.fromkeys(spans.LAYERS, 0.0)
    layer_s: dict[str, float] = {}  # per instance, summed layer self times
    for (name, _, _, _, instance), t in zip(tracer.spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        if name in spans.LAYERS:
            layer_s[instance] = layer_s.get(instance, 0.0) + t
    gap_max = 0.0  # largest share of an instance span that no layer accounts for
    for name, start, end, _, instance in tracer.spans:
        if name == "instance":
            gap_max = max(gap_max, 1 - layer_s.get(instance, 0.0) / (end - start))
    instance_s = sum(e - s for name, s, e, _, _ in tracer.spans if name == "instance")
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{run.workload.name}-{run.seed}.json"
    dump.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    print(f"cycles {cycles}, instances {run.attempted}; spans written to {dump}")
    print(f"instance spans total {instance_s:.3f} s; self time by span:")
    for name, t in self_s.items():
        print(f"  {name:8s} {t:9.3f} s  {100 * t / instance_s:5.1f} %")
    overhead = statistics.median(extra)
    q1, _, q3 = statistics.quantiles(extra, n=4) if len(extra) > 1 else (overhead,) * 3
    sign = "resolved" if q1 > 0 or q3 < 0 else "unresolved: its quartiles straddle 0"
    print(f"overhead.s per instance: median {overhead:.4f} s, quartiles {q1:.4f} {q3:.4f}; {sign}")
    rows_in = totals.pop("purge.rows_in")
    rows_kept = totals.pop("purge.rows_kept")
    metrics = {f"{name}.s": self_s[name] for name in spans.LAYERS}
    metrics.update(totals)
    metrics["purge.kept_ratio"] = rows_kept / rows_in if rows_in else 0.0
    metrics["counters.s"] = self_s["counters"]
    metrics["overhead.s"] = overhead
    metrics["failed_frac"] = run.failed / run.attempted
    metrics["spans.gap_max"] = gap_max
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tdcount" / "__init__.py").is_file():
        print(f"perfbench: no tdcount package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tdcount  # noqa: F401  (imported before any timing)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, seed {args.seed}")
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, work)
        metrics = (traced_run if args.trace else plain_run)(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("instances: " + ", ".join(f"{k} x{v}" for k, v in sorted(run.labels.items())))
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(f"answers_sha256 {run.digest.hexdigest()}")
    for line in run.wrong:
        print(f"WRONG {line}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
