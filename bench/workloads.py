"""The benchmark's workloads and the instances each run solves.

A workload is a tuple of cells (algorithm, generator family, n, m,
max_value).  A run solves items round-robin over the cells: item k belongs
to cell k % len(cells) and is that cell's base instance k // len(cells).

Base instances come from ``ordfair.generate`` with seeds fixed per
(workload, cell, index), so every run of a workload solves the same
instances up to the order of their goods; the run's ``--seed`` permutes
each instance's goods.  The reason is the share solver's cost: it is
exponential, and on fresh m=3n draws a few instances in a hundred take from
ten seconds to minutes, so runs over fresh draws would neither finish in
time nor agree with one another.  Permuting goods leaves every agent's
threshold and the share solver's work unchanged, so the reference
thresholds hold for every seed.  Agents keep their order: a3 pads with
copies of agent 0, and which agent that is changes the solve's work.

Importing this module imports ``ordfair``; the caller puts it on the path.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ordfair import GeneratorConfig, Instance, generate


@dataclass(frozen=True)
class Cell:
    algorithm: str
    family: str
    n: int
    m: int
    max_value: int

    @property
    def name(self) -> str:
        return f"{self.algorithm}.n{self.n}.m{self.m}"

    @property
    def divisor(self) -> int:
        """The share divisor the paper's guarantee uses for this cell."""
        if self.algorithm == "a3":
            return 4 * ((self.n + 2) // 3)
        return (3 * self.n + 1) // 2


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    cells: tuple[Cell, ...]
    # Items solved per second at the seed commit (Python 3.11, one core of a
    # 2-core x86-64 VM); it sizes a run so that it lasts about --seconds.
    items_per_second: float

    def item_count(self, seconds: float) -> int:
        """Whole rounds over the cells, about `seconds` long, at least two."""
        rounds = max(2, round(seconds * self.items_per_second / len(self.cells)))
        return rounds * len(self.cells)


def _cells(algorithms: str, family: str, sizes, max_value: int) -> list[Cell]:
    return [
        Cell(a, family, n, m, max_value) for n, m in sizes for a in algorithms.split(",")
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # Share-solver bound: the paper's m=3n grid; a3's padding agents copy
        # agent 0, so its thresholds repeat work.
        Workload(
            "solve-ordered",
            tuple(_cells("a1,a3", "ordered", [(5, 15), (8, 24), (10, 30)], 20)),
            items_per_second=2.7,
        ),
        # Share-solver bound in the hard bin-covering regime; the only heavy
        # workload that runs lone_divider and matching.  a2 at n=12, m=40 runs
        # for minutes at the seed commit and stays out.
        Workload(
            "solve-topn",
            tuple(_cells("a2", "top_n", [(5, 15), (8, 24), (10, 30)], 20)),
            items_per_second=1.0,
        ),
        # Padding to 2n goods makes about half the goods zero, so shares are
        # cheap and envy_cycle, verification, model and lone_divider show.
        Workload(
            "solve-light",
            tuple(
                _cells("a1,a3", "ordered", [(16, 16), (24, 24)], 4)
                + _cells("a2", "top_n", [(16, 18), (24, 26)], 4)
            ),
            items_per_second=16.5,
        ),
    )
}


@dataclass(frozen=True)
class Item:
    index: int
    cell: Cell
    instance: Instance


def base_seed(workload: str, cell: Cell, k: int) -> int:
    key = f"{workload}/{cell.name}/{k}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def base_instance(workload: str, cell: Cell, k: int) -> Instance:
    cfg = GeneratorConfig(cell.family, cell.n, cell.m, cell.max_value, base_seed(workload, cell, k))
    return generate(cfg)


def _permutation(rng: random.Random, size: int) -> list[int]:
    # Explicit Fisher-Yates on randrange, stable across Python versions.
    perm = list(range(size))
    for t in range(size - 1, 0, -1):
        j = rng.randrange(t + 1)
        perm[t], perm[j] = perm[j], perm[t]
    return perm


def build_item(workload: str, seed: int, index: int) -> Item:
    """Item `index` of `workload`, its goods permuted by `seed`."""
    cells = WORKLOADS[workload].cells
    cell = cells[index % len(cells)]
    base = base_instance(workload, cell, index // len(cells))
    goods = _permutation(random.Random(f"{seed}/{index}"), base.m)
    return Item(index, cell, Instance(tuple(tuple(row[g] for g in goods) for row in base.values)))

