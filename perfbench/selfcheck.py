"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

1. generation is deterministic: a workload seed gives byte-identical
   files and references in two interpreters with different string
   hashing, and seed 0 still gives the pinned digests;
2. the references agree with `tdcount.oracle` on the same generators at
   oracle size;
3. the references agree with tdcount at full size under both
   heuristics and several decomposition seeds;
4. two traced runs give identical answers and counters, and on every
   instance the layer spans cover the instance span to within 5%.

Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import instances as I  # noqa: E402
import references as R  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# sha256 over cycle 0 of seed 0: every file, then every expected line
PINNED = {
    "cnf-banded": "f306c530fb1c7a0dc7b1db1c71d3ebad89bbe4dd3a2d4b78406b4acb2614d490",
    "asp-grid": "2f2645526fde87c25b5bfbec528e7dcafed5afad9081a6a1d3501f1065bec161",
    "enum-proj": "6449fbcf6dacabd2574d0ee3d0d2f63464a8f7bf7e8588e28dfda83eb5687579",
}
GAP_LIMIT = 0.05

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def cycle_digest(name: str, seed: int) -> str:
    h = hashlib.sha256()
    for inst in WORKLOADS[name].cycle(seed, 0):
        h.update(inst.label.encode() + b"\0" + inst.text.encode() + b"\0")
        h.update("\n".join(R.expected_lines(inst)).encode() + b"\0")
    return h.hexdigest()


def digest_in_subprocess(name: str, seed: int, hash_seed: str) -> str:
    code = f"import selfcheck; print(selfcheck.cycle_digest({name!r}, {seed}))"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=HERE, env=env
    )
    return proc.stdout.split()[-1]


def check_generation(seed: int) -> None:
    for name in WORKLOADS:
        digests = {digest_in_subprocess(name, seed, h) for h in ("1", "2")}
        check(len(digests) == 1, f"{name}: seed {seed} regenerates identically in two processes")
        pinned = cycle_digest(name, 0)
        check(pinned == PINNED[name], f"{name}: seed 0 matches the pinned digest {pinned[:12]}")


def check_oracle_size(trials: int = 150) -> None:
    import tdcount as T

    bad = []
    for s in range(trials):
        rng = random.Random(f"oracle:{s}")
        cnf = I.cnf_instance(rng, rng.randint(I.WINDOW, 16), "pmc", project=rng.randint(1, 5))
        f = T.parse_dimacs(cnf.text)
        if (
            R.cnf_count(cnf.model) != T.brute_count_models(f)
            or R.cnf_count(cnf.model, weighted=True) != T.brute_weighted_count(f)
            or R.cnf_projected_count(cnf.model, cnf.project)
            != T.brute_projected_count(f, set(cnf.project))
        ):
            bad.append(f"{cnf.label} trial {s}")

        rows, cols = rng.choice([(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (4, 4)])
        grid = I.grid_instance(rng, rows, cols, "pcount", project=rng.randint(1, 4))
        p = T.parse_ground_program(grid.text)
        if p.num_atoms <= 20:
            ids = {name: i for i, name in enumerate(p.atom_names())}
            answer_sets = T.brute_answer_sets(p)
            costs = [p.minimize.cost_of(a) if p.minimize else 0 for a in answer_sets]
            best = min(costs, default=None)
            proj = {ids[grid.model.names[a]] for a in grid.project}
            if R.program_counts(grid.model) != (len(answer_sets), best, costs.count(best)) or (
                R.program_projected_count(grid.model, grid.project)
                != T.brute_projected_count(p, proj)
            ):
                bad.append(f"{grid.label} trial {s}")

        chain = I.chain_instance(rng, rng.randint(3, 18))
        p = T.parse_ground_program(chain.text)
        names = p.atom_names()
        ordered = sorted(T.brute_answer_sets(p), key=sorted)
        want = [" ".join(names[a] for a in sorted(x)) for x in ordered]
        if R.expected_lines(chain) != want[:10]:
            bad.append(f"{chain.label} trial {s}")

    deep = I.deep_chain_instance(12)
    p = T.parse_ground_program(deep.text)
    sets = T.brute_answer_sets(p)
    names = p.atom_names()
    if len(sets) != 1 or R.expected_lines(deep) != [" ".join(names[a] for a in sorted(sets[0]))]:
        bad.append(deep.label)
    check(not bad, f"references equal tdcount.oracle on {trials} trials per family {bad[:3]}")


def check_full_size(seed: int) -> None:
    from tdcount import cli

    tmp = HERE.parent / ".perfbench-work" / "selfcheck"
    tmp.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        bad, tried, seen = [], 0, set()
        for inst in workload.cycle(seed, 0):
            # the deep chain fails today; large CNFs take minutes under six
            # settings; one instance of each size and command is enough
            deep = inst.label.startswith("implchain")
            kind = (inst.label, inst.command)
            if deep or kind in seen or (inst.suffix == ".cnf" and inst.model.n > 750):
                continue
            seen.add(kind)
            path = tmp / f"x{inst.suffix}"
            path.write_text(inst.text, encoding="utf-8")
            want = R.expected_lines(inst)
            for heuristic in ("min-fill", "min-degree"):
                for td_seed in ("0", "1", "2"):
                    argv = [inst.command, str(path), "--heuristic", heuristic, "--seed", td_seed]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        cli.run(argv + list(inst.options))
                    tried += 1
                    if out.getvalue().splitlines() != want:
                        bad.append(f"{inst.label} {heuristic} seed {td_seed}")
            path.unlink()
        check(not bad, f"{name}: references equal tdcount on {tried} runs {bad[:3]}")
    tmp.rmdir()


def traced(name: str, seed: int) -> tuple[dict, str]:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv], capture_output=True, text=True, check=True
    )
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if "answers_sha256" in line)
    return json.loads(lines[-1]), digest


def check_traced(seed: int) -> None:
    for name in WORKLOADS:
        runs = [traced(name, seed), traced(name, seed)]
        counters = [
            {k: v["value"] for k, v in result["metrics"].items() if not k.endswith(".s")}
            for result, _ in runs
        ]
        for c in counters:
            del c["spans.gap_max"]  # a timing ratio
        check(all(result["correct"] for result, _ in runs), f"{name}: traced answers are correct")
        same = runs[0][1] == runs[1][1] and counters[0] == counters[1]
        check(same, f"{name}: two traced runs agree on answers and counters")
        gap = max(result["metrics"]["spans.gap_max"]["value"] for result, _ in runs)
        check(gap <= GAP_LIMIT, f"{name}: layer spans cover each instance span to {gap:.2%}")


def main() -> int:
    parser = argparse.ArgumentParser(description="self-checks of the benchmark")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    check_generation(args.seed)
    check_oracle_size()
    check_full_size(args.seed)
    check_traced(args.seed)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
