"""Alternating parent/change pairs of the benchmark, written as one JSON file.

    python3 tools/benchpairs.py --base PARENT --head CHANGE --seeds 0,1,2,3,4,5 \
        --out BENCH_<n>.json

Each revision is unpacked with `git archive` into a temporary directory,
and each side runs its own `perfbench/run.py --trace 0`, so the two
sides run the benchmark code of their own commit.  Every workload of the
base's `BENCHMARK.json` runs, and pair i of a workload
uses the i-th seed for both sides; the base runs first in even pairs and
the head in odd ones.  The output holds the revisions, every run's
metrics and failed counts, and per workload and end-to-end metric each
side's median and quartiles and the pairs each side won (a tie counts
for neither).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "head")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def unpack(rev: str, dest: Path) -> str:
    """Extract `rev` into `dest`; returns its full commit id."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", sha), check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` in `tree`: its last output line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree.name} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric of `better` (name -> "higher" | "lower"):
    each side's median and quartiles over its runs, and the pairs each
    side won.  A pair whose two values are equal counts for neither."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        out[workload] = {"pairs": len(runs), "failed": {s: sum(p[s]["failed"] for p in runs) for s in SIDES}}
        for metric, direction in better.items():
            values = {s: [p[s]["metrics"][metric] for p in runs] for s in SIDES}
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (h - b) for b, h in zip(values["base"], values["head"])]
            out[workload][metric] = {
                **{s: _spread(values[s]) for s in SIDES},
                "head_wins": sum(d > 0 for d in diffs),
                "base_wins": sum(d < 0 for d in diffs),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", required=True, help="changed revision")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds, one per pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        revisions = {side: unpack(getattr(args, side), trees[side]) for side in SIDES}
        bench = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in bench["workloads"]]
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, bench["run_seconds"])
                pairs.append(pair)
                print(f"pair {i} {workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['instances_per_s']:.3g}/s" for side in SIDES
                ), file=sys.stderr)

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = {
        "revisions": revisions,
        "command": "perfbench/run.py --trace 0",
        "seconds": bench["run_seconds"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pairs": pairs,
        "summary": summarize(pairs, better),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
