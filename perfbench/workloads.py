"""The three workloads.  A run repeats a workload's cycle.  Instance c of
cycle k of seed s is generated from the string seed
"<workload>:<s>:<k>:<c>", so the same workload seed gives byte-identical
files.

solve_p50_s is the median over a run's instances, so on cnf-banded and
asp-grid the cycle repeats one middle size, with as many instances
below it as above it: the median then falls well inside that size's
samples and rests on eight or more of them per run, rather than on
the one or two instances nearest a boundary between sizes."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import instances as I
from references import program_counts

# n=750 four times between one smaller and one larger size
CNF_SIZES = (750, 500, 750, 1250, 750, 750)
# 5 x 20 three times between two cheaper and two dearer grids
GRID_SIZES = ((5, 20), (4, 20), (5, 25), (5, 20), (4, 30), (5, 30), (5, 20))
CHAIN_SIZES = (80, 90, 100)
# enumerate --limit 10 materializes every answer set today, so its cost
# follows the answer-set count, which varies tenfold between random
# chains of one length; chains are redrawn until the count lies here
CHAIN_ANSWER_SETS = (8000, 11000)
PROJECTION_SIZES = (5, 10, 20)
PROJ_GRID = (4, 20)
PROJ_CNF_VARS = 400
DEEP_CHAIN = 1100


def _cnf_cycle(rng_of, k):
    # mc and wmc alternate along the cycle, swapping every cycle
    return [
        I.cnf_instance(rng_of(c), n, ("mc", "wmc")[(c + k) % 2])
        for c, n in enumerate(CNF_SIZES)
    ]


def _grid_cycle(rng_of, k):
    kinds = [(size, cmd) for size in GRID_SIZES for cmd in ("count", "optcount")]
    return [I.grid_instance(rng_of(c), *size, cmd) for c, (size, cmd) in enumerate(kinds)]


def _banded_chain(rng, n):
    lo, hi = CHAIN_ANSWER_SETS
    for _ in range(10_000):
        inst = I.chain_instance(rng, n)
        if lo <= program_counts(inst.model)[0] <= hi:
            return inst
    raise RuntimeError(f"no chain of length {n} with {lo}..{hi} answer sets")


def _enum_cycle(rng_of, k):
    out = [_banded_chain(rng_of(c), n) for c, n in enumerate(CHAIN_SIZES)]
    for size in PROJECTION_SIZES:
        out.append(I.grid_instance(rng_of(len(out)), *PROJ_GRID, "pcount", size))
        out.append(I.cnf_instance(rng_of(len(out)), PROJ_CNF_VARS, "pmc", size))
    out.append(I.deep_chain_instance(DEEP_CHAIN))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable
    cycle_s: float  # one cycle's untraced time at the seed commit, 2-core Xeon

    def cycle(self, seed: int, k: int) -> list[I.Instance]:
        return self.build(lambda c: random.Random(f"{self.name}:{seed}:{k}:{c}"), k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cnf-banded",
            "banded 3-CNF, n=500, 750 (x4) and 1250, mc and wmc: min-fill ordering "
            "rescans every vertex per elimination, so the ordering layer dominates",
            _cnf_cycle,
            14.5,
        ),
        Workload(
            "asp-grid",
            "4-5 x 20-30 grid programs, 5 x 20 thrice, count and optcount: width-6 tables "
            "with witness sets up to 129 states, so the table pass dominates",
            _grid_cycle,
            9.0,
        ),
        Workload(
            "enum-proj",
            "enumerate --limit 10 on chains, pcount/pmc with |P|=5,10,20, and a deep "
            "chain: the only readers of purge and provenance",
            _enum_cycle,
            4.3,
        ),
    )
}
