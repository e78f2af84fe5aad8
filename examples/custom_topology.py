#!/usr/bin/env python
"""Define a custom interconnection topology and measure strategies on it.

The paper's schemes only assume a neighbor relation and channels, so any
``repro.topology.Topology`` subclass works.  This example builds a
chordal ring (a ring with skip links — a classic 1980s interconnect the
paper does not evaluate) and compares how far CWN's advantage over GM
carries as the chord length changes the diameter.

Run:  python examples/custom_topology.py
"""

from repro import Scenario
from repro.core import paper_cwn, paper_gm
from repro.topology import Topology


class ChordalRing(Topology):
    """A ring of ``n`` PEs with extra chords of length ``chord``.

    Every PE links to its two ring neighbors and to the PEs ``chord``
    positions away in both directions.  ``chord=1`` degenerates to the
    plain ring; larger chords shrink the diameter roughly by ``chord``.
    """

    family = "chordal"

    def __init__(self, n: int, chord: int) -> None:
        if n < 4:
            raise ValueError("chordal ring needs at least 4 PEs")
        if not 1 <= chord <= n // 2:
            raise ValueError("chord must be in 1..n/2")
        self.n = n
        self.chord = chord
        super().__init__()

    def _build(self):
        neighbor_sets = [set() for _ in range(self.n)]
        links = set()
        for pe in range(self.n):
            for step in (1, self.chord):
                other = (pe + step) % self.n
                if other == pe:
                    continue
                neighbor_sets[pe].add(other)
                neighbor_sets[other].add(pe)
                links.add((min(pe, other), max(pe, other)))
        return neighbor_sets, sorted(links)

    @property
    def name(self) -> str:
        return f"chordal n={self.n} chord={self.chord}"


def main() -> None:
    workload = "fib:13"  # 753 goals
    print(f"{'topology':>26s}  diam  CWN speedup  GM speedup  ratio")
    for chord in (1, 4, 8, 16):
        topo = ChordalRing(32, chord)
        cwn = Scenario(workload, topo, paper_cwn("grid"), seed=1).run()
        gm = Scenario(workload, topo, paper_gm("grid"), seed=1).run()
        print(
            f"{topo.name:>26s}  {topo.diameter:4d}  {cwn.speedup:11.2f}"
            f"  {gm.speedup:10.2f}  {cwn.speedup / gm.speedup:5.2f}"
        )
    print()
    print("The paper conjectures CWN's edge grows with network diameter;")
    print("watch the ratio column fall as chords shrink the diameter.")


if __name__ == "__main__":
    main()
