"""Interconnection topologies for the simulated multiprocessors.

The paper evaluates two main families — wrap-around 2-D grids (tori) and
double-lattice-meshes — plus hypercubes in its appendix.  :func:`make`
builds the exact instances the paper names (including the DLM span/size
triples from its plot captions).
"""

from __future__ import annotations

from ..scenario.registry import Registry
from .base import Topology
from .ccc import CubeConnectedCycles
from .chordal import ChordalRing
from .dlm import DoubleLatticeMesh
from .grid import Grid
from .hypercube import Hypercube
from .partition import Partition
from .ring import Complete, Ring
from .star import Star
from .torus3d import Torus3D
from .tree import KaryTree

__all__ = [
    "ChordalRing",
    "Complete",
    "CubeConnectedCycles",
    "DoubleLatticeMesh",
    "Grid",
    "Hypercube",
    "KaryTree",
    "Partition",
    "Ring",
    "Star",
    "TOPOLOGIES",
    "Topology",
    "Torus3D",
    "canonical_spec",
    "make",
    "paper_dlm",
    "paper_grid",
    "spec_of",
]

#: The DLM instances named in the paper's plot captions, keyed by PE count:
#: "Double Lattice-Mesh of <span> <rows> <cols>".
_PAPER_DLM: dict[int, tuple[int, int, int]] = {
    25: (5, 5, 5),
    64: (4, 8, 8),
    100: (5, 10, 10),
    256: (4, 16, 16),
    400: (5, 20, 20),
}

#: The square tori of the paper, keyed by PE count.
_PAPER_GRID: dict[int, tuple[int, int]] = {
    25: (5, 5),
    64: (8, 8),
    100: (10, 10),
    256: (16, 16),
    400: (20, 20),
}


def paper_grid(n_pes: int) -> Grid:
    """The paper's torus with ``n_pes`` PEs (25/64/100/256/400)."""
    try:
        rows, cols = _PAPER_GRID[n_pes]
    except KeyError:
        raise ValueError(
            f"the paper simulates grids of {sorted(_PAPER_GRID)} PEs, not {n_pes}"
        ) from None
    return Grid(rows, cols)


def paper_dlm(n_pes: int) -> DoubleLatticeMesh:
    """The paper's double-lattice-mesh with ``n_pes`` PEs."""
    try:
        span, rows, cols = _PAPER_DLM[n_pes]
    except KeyError:
        raise ValueError(
            f"the paper simulates DLMs of {sorted(_PAPER_DLM)} PEs, not {n_pes}"
        ) from None
    return DoubleLatticeMesh(span, rows, cols)


#: The open topology vocabulary: :func:`make` / :func:`spec_of` / the
#: Scenario spec grammar / ``repro list topologies`` all read this one
#: table.  Third parties extend it with ``@TOPOLOGIES.register`` or a
#: ``repro.topologies`` entry point.  Its canonical memo keeps each
#: topology's PE count and family, which ``Scenario.canonical()``
#: checks injection PEs against and resolves the strategy with.
TOPOLOGIES = Registry(
    "topology",
    entry_point_group="repro.topologies",
    facts=lambda topology: (topology.n, topology.family),
)


def _spell_grid(topology: Grid) -> str:
    if not topology.wraparound:
        raise ValueError("no spec-string syntax for a non-wraparound Grid")
    return f"grid:{topology.rows}x{topology.cols}"


@TOPOLOGIES.register(
    "grid",
    cls=Grid,
    spell=_spell_grid,
    metadata={"summary": "wrap-around 2-D grid (torus), the paper's main family",
              "example": "grid:8x8"},
)
def _build_grid(rest: str) -> Grid:
    rows, cols = (int(x) for x in rest.split("x"))
    return Grid(rows, cols)


@TOPOLOGIES.register(
    "dlm",
    cls=DoubleLatticeMesh,
    spell=lambda t: f"dlm:{t.span}x{t.rows}x{t.cols}",
    metadata={"summary": "double lattice mesh (span x rows x cols)",
              "example": "dlm:5x5x5"},
)
def _build_dlm(rest: str) -> DoubleLatticeMesh:
    span, rows, cols = (int(x) for x in rest.split("x"))
    return DoubleLatticeMesh(span, rows, cols)


@TOPOLOGIES.register(
    "hypercube",
    cls=Hypercube,
    spell=lambda t: f"hypercube:{t.dim}",
    metadata={"summary": "binary d-cube (the appendix's family)",
              "example": "hypercube:6"},
)
def _build_hypercube(rest: str) -> Hypercube:
    return Hypercube(int(rest))


@TOPOLOGIES.register(
    "ring",
    cls=Ring,
    spell=lambda t: f"ring:{t.n}",
    metadata={"summary": "bidirectional ring", "example": "ring:16"},
)
def _build_ring(rest: str) -> Ring:
    return Ring(int(rest))


@TOPOLOGIES.register(
    "complete",
    cls=Complete,
    spell=lambda t: f"complete:{t.n}",
    metadata={"summary": "complete graph (every PE adjacent)", "example": "complete:8"},
)
def _build_complete(rest: str) -> Complete:
    return Complete(int(rest))


@TOPOLOGIES.register(
    "tree",
    cls=KaryTree,
    spell=lambda t: f"tree:{t.arity}x{t.levels}",
    metadata={"summary": "k-ary tree (arity x levels)", "example": "tree:2x5"},
)
def _build_tree(rest: str) -> KaryTree:
    arity, levels = (int(x) for x in rest.split("x"))
    return KaryTree(arity, levels)


@TOPOLOGIES.register(
    "torus3d",
    cls=Torus3D,
    spell=lambda t: f"torus3d:{t.x}x{t.y}x{t.z}",
    metadata={"summary": "3-D torus", "example": "torus3d:4x4x4"},
)
def _build_torus3d(rest: str) -> Torus3D:
    x, y, z = (int(v) for v in rest.split("x"))
    return Torus3D(x, y, z)


@TOPOLOGIES.register(
    "chordal",
    cls=ChordalRing,
    spell=lambda t: f"chordal:{t.n}x{t.chord}",
    metadata={"summary": "ring with chords every `chord` steps",
              "example": "chordal:25x5"},
)
def _build_chordal(rest: str) -> ChordalRing:
    parts = [int(v) for v in rest.split("x")]
    if len(parts) == 1:
        return ChordalRing(parts[0])
    return ChordalRing(parts[0], parts[1])


@TOPOLOGIES.register(
    "ccc",
    cls=CubeConnectedCycles,
    spell=lambda t: f"ccc:{t.d}",
    metadata={"summary": "cube-connected cycles of dimension d", "example": "ccc:3"},
)
def _build_ccc(rest: str) -> CubeConnectedCycles:
    return CubeConnectedCycles(int(rest))


@TOPOLOGIES.register(
    "star",
    cls=Star,
    spell=lambda t: f"star:{t.n}",
    metadata={"summary": "hub-and-spoke star", "example": "star:16"},
)
def _build_star(rest: str) -> Star:
    return Star(int(rest))


def make(spec: str) -> Topology:
    """Build a topology from a compact spec string (via :data:`TOPOLOGIES`).

    Examples: ``grid:10x10``, ``dlm:5x10x10`` (span x rows x cols),
    ``hypercube:7``, ``ring:16``, ``complete:8``, ``tree:2x5``
    (arity x levels), ``torus3d:4x4x4``, ``chordal:25`` or
    ``chordal:25x5`` (n x chord), ``ccc:3``, ``star:16``.  Unknown
    kinds raise :class:`ValueError` listing the registered vocabulary
    and the nearest match.
    """
    return TOPOLOGIES.make(spec)


def spec_of(topology: Topology) -> str:
    """The canonical :func:`make` spec that rebuilds ``topology``.

    Inverse of :func:`make`; topologies with parameters ``make`` cannot
    express (e.g. a no-wraparound :class:`Grid`) raise ``ValueError``.
    """
    return TOPOLOGIES.spec_of(topology)


def canonical_spec(spec: str | Topology) -> str:
    """Normalize a topology spec (or object) to its canonical spelling.

    Spec strings go through the registry's memo
    (:meth:`~repro.scenario.Registry.canonical`), so each spelling is
    built once per process.
    """
    return TOPOLOGIES.canonical(spec).spec if isinstance(spec, str) else spec_of(spec)
