"""Combinatorial graphs attached to a cubic monomial system.

The directed graph has an edge (i, j) iff x_i^2 x_j is in the apolar set P;
its undirected complement joins i and j iff neither mixed square is in P.
Connected components of the complement, when complete, recover the partition
that indexes the classified family.  The typed graph at a distinguished cube
classifies the edges of 3*Delta by membership in the lattice spanned by P.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import PreconditionError, StructureFailureError
from .monomials import MonomialSystem, PartitionSpec
from .polytope import spanned_lattice


def _require_cubic_system(sys: MonomialSystem):
    if sys.d != 3:
        raise PreconditionError("graph constructions are specific to cubics (d = 3)")


def _mixed_square(i, j, n1):
    v = [0] * n1
    v[i], v[j] = 2, 1
    return tuple(v)


@dataclass(frozen=True)
class DirectedSystemGraph:
    n: int
    edges: frozenset  # ordered pairs (i, j), i != j

    def is_symmetric(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def adjacency_text(self) -> str:
        lines = []
        for i in range(self.n + 1):
            out = sorted(j for (a, j) in self.edges if a == i)
            lines.append(f"v{i} -> " + (" ".join(f"v{j}" for j in out) or "-"))
        return "\n".join(lines)


@dataclass(frozen=True)
class ComplementSystemGraph:
    n: int
    edges: frozenset  # unordered pairs as sorted tuples (i, j), i < j


def build_gp(sys: MonomialSystem) -> DirectedSystemGraph:
    _require_cubic_system(sys)
    n1 = sys.n + 1
    apolar = set(sys.apolar)
    edges = frozenset(
        (i, j)
        for i in range(n1)
        for j in range(n1)
        if i != j and _mixed_square(i, j, n1) in apolar
    )
    return DirectedSystemGraph(sys.n, edges)


def check_symmetry(sys: MonomialSystem) -> bool:
    """x_i^2 x_j in P implies x_j^2 x_i in P (holds for all minimal smooth systems)."""
    return build_gp(sys).is_symmetric()


def build_gp_complement(sys: MonomialSystem) -> ComplementSystemGraph:
    _require_cubic_system(sys)
    gp = build_gp(sys)
    if not gp.is_symmetric():
        warnings.warn(
            "directed system graph is not symmetric; the complement graph "
            "definition presumes symmetry",
            stacklevel=2,
        )
    n1 = sys.n + 1
    edges = frozenset(
        (i, j)
        for i in range(n1)
        for j in range(i + 1, n1)
        if (i, j) not in gp.edges and (j, i) not in gp.edges
    )
    return ComplementSystemGraph(sys.n, edges)


def extract_partition(sys: MonomialSystem) -> PartitionSpec:
    """Partition of {0..n} from the components of the complement graph.

    Succeeds iff every component is a complete graph; otherwise raises
    StructureFailureError with a witness triple (i, j, k) where (i,j) and
    (j,k) are edges but (i,k) is not.
    """
    _require_cubic_system(sys)
    if not check_symmetry(sys):
        raise PreconditionError("directed system graph is not symmetric")
    adj, components = _complement_components(sys)
    for comp in components:
        for i in comp:
            for j in comp:
                if i != j and j not in adj[i]:
                    a, k, b = _incomplete_witness(adj, i, j)
                    raise StructureFailureError(
                        f"component {comp} is not complete: "
                        f"({a},{k}) and ({k},{b}) are edges but ({a},{b}) is not",
                        witness=(a, k, b),
                    )
    sizes = sorted((len(c) for c in components), reverse=True)
    return PartitionSpec(tuple(sizes), sys.n)


def _complement_components(sys: MonomialSystem):
    """Adjacency sets and connected components of the complement graph.

    Returns (adj, components): adj maps each vertex to its neighbour set,
    and each component is a sorted vertex list, ordered by least vertex.
    Callers check first that the directed graph is symmetric.  Shared by
    extract_partition and family.member_partition.
    """
    comp_graph = build_gp_complement(sys)
    n1 = sys.n + 1
    adj = {i: set() for i in range(n1)}
    for i, j in comp_graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = set()
    components = []
    for start in range(n1):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        components.append(sorted(comp))
    return adj, components


def _incomplete_witness(adj, i, j):
    """First three vertices of a shortest path i..j; its endpoints are non-adjacent."""
    from collections import deque

    parent = {i: None}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        if v == j:
            break
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = []
    v = j
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return path[0], path[1], path[2]


@dataclass(frozen=True)
class TypedVertexGraph:
    """Edge types at the cube x_{i0}^3, by membership in the affine lattice of the points.

    Type 'a': x_{i0}^2 x_i in the lattice; 'b': x_{i0} x_i^2 in it; 'c': neither.
    An index of type both-a-and-b forces the cube itself into the lattice,
    which is reported through the degenerate flag.
    """

    i0: int
    types: dict  # index i != i0 -> 'a' | 'b' | 'c'
    edges: frozenset  # sorted pairs (i, j), i < j, both != i0
    degenerate: bool  # x_{i0}^3 itself lies in the lattice


def typed_vertex_graph(points, i0: int = 0) -> TypedVertexGraph:
    points = tuple(sorted(set(map(tuple, points))))
    if any(sum(p) != 3 for p in points):
        raise PreconditionError("points must be degree-3 monomials (d = 3)")
    n1 = len(points[0])
    base, lattice = spanned_lattice(points)

    def in_lattice(mono):
        return lattice.contains(tuple(a - b for a, b in zip(mono, base)))

    def mono(*pairs):
        v = [0] * n1
        for idx, e in pairs:
            v[idx] += e
        return tuple(v)

    degenerate = in_lattice(mono((i0, 3)))
    types = {}
    for i in range(n1):
        if i == i0:
            continue
        a = in_lattice(mono((i0, 2), (i, 1)))
        b = in_lattice(mono((i0, 1), (i, 2)))
        if a:
            types[i] = "a"
        elif b:
            types[i] = "b"
        else:
            types[i] = "c"
    edges = frozenset(
        (i, j)
        for i in range(n1)
        for j in range(i + 1, n1)
        if i != i0 and j != i0 and in_lattice(mono((i0, 1), (i, 1), (j, 1)))
    )
    return TypedVertexGraph(i0, types, edges, degenerate)
