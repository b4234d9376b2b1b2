"""System graphs: directed, complement, partition extraction, typed vertices."""

import itertools
from dataclasses import dataclass

import pytest

from togliatti import (
    MonomialSystem,
    PreconditionError,
    StructureFailureError,
    build_gp,
    extract_partition,
)
from togliatti.family import family_system, valid_partitions
from togliatti.graphs import DirectedSystemGraph, complement_groups
from togliatti.monomials import PartitionSpec, lattice_points_simplex
from togliatti.polytope import spanned_lattice

import conftest
from oracles import complement_components_by_search


def complement_edges(sys):
    """The complement of G_P as sorted pairs (i, j), i < j."""
    adj = build_gp(sys).complement_neighbours()
    return frozenset((i, j) for i in adj for j in adj[i] if i < j)


class TestDirectedGraph:
    def test_truncated_simplex_complete(self):
        sys = conftest.truncated_simplex_system(2)
        gp = build_gp(sys)
        assert gp.edges == frozenset(
            (i, j) for i in range(3) for j in range(3) if i != j
        )
        assert gp.is_symmetric()

    def test_counterex3_missing_01(self, counterex3):
        gp = build_gp(counterex3)
        missing = {(i, j) for i in range(4) for j in range(4) if i != j} - set(gp.edges)
        assert missing == {(0, 1), (1, 0)}

    def test_empty_apolar(self):
        sys = MonomialSystem.from_generators(2, 3, lattice_points_simplex(2, 3))
        assert build_gp(sys).edges == frozenset()

    def test_asymmetry_detected(self):
        # P = {x0^2 x1} only: edge (0,1) with no reverse
        points = lattice_points_simplex(2, 3)
        sys = MonomialSystem.from_apolar(2, 3, [(2, 1, 0)])
        gp = build_gp(sys)
        assert (0, 1) in gp.edges and (1, 0) not in gp.edges
        assert not gp.is_symmetric()

    def test_d2_rejected(self):
        sys = MonomialSystem.from_generators(2, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        with pytest.raises(PreconditionError):
            build_gp(sys)


class TestComplementGraph:
    def test_truncated_simplex_empty(self):
        sys = conftest.truncated_simplex_system(2)
        assert complement_edges(sys) == frozenset()

    def test_counterex3_single_edge(self, counterex3):
        assert complement_edges(counterex3) == frozenset({(0, 1)})

    def test_partition_22_two_edges(self):
        fam = family_system(PartitionSpec((2, 2), 3))
        assert complement_edges(fam.sys) == frozenset({(0, 1), (2, 3)})

    def test_partitions_pairs_with_gp(self):
        # under symmetry, each pair {i,j} is in exactly one of G_P, G_P'
        rng = conftest.seeded_rng(3)
        for _ in range(40):
            sys = conftest.random_artinian_system(rng, rng.choice([2, 3]))
            gp = build_gp(sys)
            if not gp.is_symmetric():
                continue
            comp = complement_edges(sys)
            n1 = sys.n + 1
            for i in range(n1):
                for j in range(i + 1, n1):
                    in_gp = (i, j) in gp.edges
                    assert in_gp != ((i, j) in comp)


class TestExtractPartition:
    def test_truncated_simplex_all_ones(self):
        sys = conftest.truncated_simplex_system(3)
        assert extract_partition(sys).parts == (1, 1, 1, 1)

    def test_counterex3(self, counterex3):
        assert extract_partition(counterex3).parts == (2, 1, 1)

    def test_family_roundtrip(self):
        for n in range(2, 7):
            for spec in valid_partitions(n):
                fam = family_system(spec)
                assert extract_partition(fam.sys) == spec

    def test_incomplete_component_witness(self):
        # complement is the path 0-1-2: P holds both mixed squares of the
        # pair {0,2} and nothing else, so {0,1} and {1,2} are complement
        # edges while {0,2} is not
        sys = MonomialSystem.from_apolar(2, 3, [(2, 0, 1), (1, 0, 2)])
        with pytest.raises(StructureFailureError) as err:
            extract_partition(sys)
        a, k, b = err.value.witness
        comp = complement_edges(sys)
        assert tuple(sorted((a, k))) in comp
        assert tuple(sorted((k, b))) in comp
        assert tuple(sorted((a, b))) not in comp

    def test_asymmetric_rejected(self):
        sys = MonomialSystem.from_apolar(2, 3, [(2, 1, 0)])
        with pytest.raises(PreconditionError):
            extract_partition(sys)


class TestComplementGroups:
    @pytest.mark.parametrize("n1", [3, 4, 5, 6])
    def test_every_symmetric_graph_matches_search(self, n1):
        # all 2^C(n1,2) undirected graphs, each as a symmetric G_P
        pairs = list(itertools.combinations(range(n1), 2))
        for mask in range(1 << len(pairs)):
            chosen = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
            gp = DirectedSystemGraph(n1 - 1, frozenset(chosen + [(j, i) for i, j in chosen]))
            components, complete = complement_components_by_search(gp)
            if complete:
                expected = sorted(map(tuple, components), key=len, reverse=True)
                assert complement_groups(gp) == expected
                continue
            with pytest.raises(StructureFailureError) as err:
                complement_groups(gp)
            a, k, b = err.value.witness
            adj = gp.complement_neighbours()
            assert a != b and k in adj[a] and b in adj[k] and b not in adj[a]


@dataclass(frozen=True)
class TypedVertexGraph:
    """Edge types at the cube x_{i0}^3, by membership in the affine lattice of the points.

    Type 'a': x_{i0}^2 x_i in the lattice; 'b': x_{i0} x_i^2 in it; 'c': neither.
    An index of type both-a-and-b forces the cube itself into the lattice,
    which is reported through the degenerate flag.  A step of the paper's
    lattice argument, checked here on random point sets; no verdict uses it.
    """

    i0: int
    types: dict  # index i != i0 -> 'a' | 'b' | 'c'
    edges: frozenset  # sorted pairs (i, j), i < j, both != i0
    degenerate: bool  # x_{i0}^3 itself lies in the lattice


def typed_vertex_graph(points, i0=0) -> TypedVertexGraph:
    points = tuple(sorted(set(map(tuple, points))))
    n1 = len(points[0])
    base, lattice = spanned_lattice(points)

    def in_lattice(*pairs):
        mono = [0] * n1
        for idx, e in pairs:
            mono[idx] += e
        return lattice.contains(tuple(a - b for a, b in zip(mono, base)))

    degenerate = in_lattice((i0, 3))
    types = {}
    for i in range(n1):
        if i == i0:
            continue
        if in_lattice((i0, 2), (i, 1)):
            types[i] = "a"
        elif in_lattice((i0, 1), (i, 2)):
            types[i] = "b"
        else:
            types[i] = "c"
    edges = frozenset(
        (i, j)
        for i in range(n1)
        for j in range(i + 1, n1)
        if i != i0 and j != i0 and in_lattice((i0, 1), (i, 1), (j, 1))
    )
    return TypedVertexGraph(i0, types, edges, degenerate)


class TestTypedVertexGraph:
    def test_full_lattice_degenerate(self, brenner_kaid):
        g = typed_vertex_graph(brenner_kaid.apolar, 0)
        assert g.degenerate  # M is the full lattice, so x0^3 is in it

    def test_pure_cubes_degenerate_at_own_vertex(self):
        g = typed_vertex_graph([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 0)
        assert g.degenerate  # x0^3 is itself one of the points

    def test_coarse_sublattice_all_c(self):
        # M spanned by x1^3 - x2^3 only: nothing at x0 is reachable
        g = typed_vertex_graph([(0, 3, 0), (0, 0, 3)], 0)
        assert not g.degenerate
        assert g.types == {1: "c", 2: "c"}
        assert g.edges == frozenset()

    def test_hand_built_types(self):
        # points {x0^2 x1, x1^2 x2}: M spanned by (2,1,0)-(0,2,1) = (2,-1,-1)
        points = [(2, 1, 0), (0, 2, 1)]
        g = typed_vertex_graph(points, 0)
        assert not g.degenerate
        # x0^2 x1 = base + 0 -> in affine lattice: type a for i=1
        assert g.types[1] == "a"

    def test_forbidden_patterns(self):
        # consequences of the lattice argument: when x_{i0}^3 is outside M
        # there are no a-a edges, no a-b edges, no b-c edges, and no triangle
        # through a type-c vertex
        rng = conftest.seeded_rng(77)
        checked = 0
        for _ in range(300):
            n = rng.choice([2, 3])
            pts = lattice_points_simplex(n, 3)
            sample = rng.sample(pts, rng.randint(2, len(pts) // 2))
            g = typed_vertex_graph(sample, 0)
            if g.degenerate:
                continue
            checked += 1
            for i, j in g.edges:
                ti, tj = g.types[i], g.types[j]
                assert {ti, tj} != {"a"}
                assert {ti, tj} != {"a", "b"}
                assert {ti, tj} != {"b", "c"}
            verts = [i for i in g.types]
            for i, j in g.edges:
                for k in verts:
                    if k in (i, j):
                        continue
                    if (tuple(sorted((i, k))) in g.edges
                            and tuple(sorted((j, k))) in g.edges):
                        assert "c" not in (g.types[i], g.types[j], g.types[k])
        assert checked > 20
