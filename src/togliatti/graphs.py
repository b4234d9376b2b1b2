"""The directed graph G_P attached to a cubic monomial system.

G_P has an edge (i, j) iff x_i^2 x_j is in the apolar set P; its undirected
complement joins i and j iff neither mixed square is in P.  Connected
components of the complement, when complete, recover the partition that
indexes the classified family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError, StructureFailureError
from .monomials import MonomialSystem, PartitionSpec


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

    def complement_neighbours(self) -> dict:
        """Each vertex's neighbour set in the complement: j != i joined to i
        by an edge in neither direction."""
        n1 = self.n + 1
        return {
            i: {j for j in range(n1)
                if j != i and (i, j) not in self.edges and (j, i) not in self.edges}
            for i in range(n1)
        }

    def complement_components(self) -> list:
        """Connected components of the complement as sorted vertex lists,
        ordered by least vertex."""
        adj = self.complement_neighbours()
        seen = set()
        components = []
        for start in range(self.n + 1):
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
        return components


def build_gp(sys: MonomialSystem) -> DirectedSystemGraph:
    if sys.d != 3:
        raise PreconditionError("graph constructions are specific to cubics (d = 3)")
    n1 = sys.n + 1
    apolar = set(sys.apolar)
    edges = frozenset(
        (i, j)
        for i in range(n1)
        for j in range(n1)
        if i != j and _mixed_square(i, j, n1) in apolar
    )
    return DirectedSystemGraph(sys.n, edges)


def extract_partition(sys: MonomialSystem) -> PartitionSpec:
    """Partition of {0..n} from the components of the complement graph.

    Succeeds iff every component is a complete graph; otherwise raises
    StructureFailureError with a witness triple (i, j, k) where (i,j) and
    (j,k) are edges but (i,k) is not.
    """
    gp = build_gp(sys)
    if not gp.is_symmetric():
        raise PreconditionError("directed system graph is not symmetric")
    adj = gp.complement_neighbours()
    components = gp.complement_components()
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


def _incomplete_witness(adj, i, j):
    """First three vertices of a shortest path i..j; its endpoints are non-adjacent."""
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
