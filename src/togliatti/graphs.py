"""The directed graph G_P attached to a cubic monomial system.

G_P has an edge (i, j) iff x_i^2 x_j is in the apolar set P; its undirected
complement joins i and j iff neither mixed square is in P.  Connected
components of the complement, when complete, recover the partition that
indexes the classified family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def complement_groups(gp: DirectedSystemGraph) -> list:
    """The components of the complement of a symmetric G_P, each complete.

    A graph is a disjoint union of complete graphs iff no vertex k has two
    non-adjacent neighbours a, b.  If none has, adjacency is transitive on
    distinct vertices, so "equal or adjacent" is an equivalence whose
    classes are the components, each complete, and the closed neighbourhood
    {k} | adj[k] of each vertex is its component.  If a component is not
    complete, a shortest path between two non-adjacent vertices of it has
    at least three vertices, and its first three form such an (a, k, b):
    a and b are not adjacent, or the path would be shorter.

    Returns the groups as sorted tuples, largest first, ties by least
    vertex.  Raises PreconditionError when G_P is not symmetric and
    StructureFailureError with witness (a, k, b) at the first such triple.
    """
    if not gp.is_symmetric():
        raise PreconditionError("directed system graph is not symmetric")
    adj = gp.complement_neighbours()
    for k in adj:
        for a, b in combinations(sorted(adj[k]), 2):
            if b not in adj[a]:
                raise StructureFailureError(
                    f"complement component of {k} is not complete: "
                    f"({a},{k}) and ({k},{b}) are edges but ({a},{b}) is not",
                    witness=(a, k, b),
                )
    groups = {tuple(sorted(adj[k] | {k})) for k in adj}
    return sorted(groups, key=lambda g: (-len(g), g[0]))


def extract_partition(sys: MonomialSystem) -> PartitionSpec:
    """Partition of {0..n} from the components of the complement graph.

    Succeeds iff every component is a complete graph; otherwise raises
    StructureFailureError with a witness triple, as complement_groups.
    """
    return PartitionSpec(tuple(map(len, complement_groups(build_gp(sys)))), sys.n)
