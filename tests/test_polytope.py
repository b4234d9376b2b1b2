"""Hull structure, spanned lattices and the smoothness certificate."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from togliatti import (
    InvalidArgumentError,
    PreconditionError,
    hull_structure,
    is_smooth,
    lattice_points_simplex,
    smoothness_check,
    spanned_lattice,
    spans_full_lattice,
    contains_all_simplex_vertices,
)
from togliatti.family import family_system, valid_partitions
from togliatti.linalg import hnf, kernel_basis, rank
from togliatti.monomials import MonomialSystem, parse_system
from togliatti import polytope
from togliatti.polytope import degree_lattice, lattice_coordinates

import conftest
import oracles
from oracles import lattice_index


def oracle_hull(points):
    """Brute-force vertices and edges via supporting-hyperplane enumeration.

    Independent of the production code path: finds all facets as hyperplanes
    through m affinely independent points with everything on one side, then
    reads vertices (m active facets) and edges (m-1 active facets) off them.
    """
    points = sorted(set(map(tuple, points)))
    base, lat, coords = lattice_coordinates(points)
    m = lat.dimension
    C = {p: coords[p] for p in points}
    if m == 0:
        return points, []
    if m == 1:
        verts = [points[0], points[-1]]
        return sorted(verts), [tuple(sorted(verts))]
    facets = set()
    for sub in itertools.combinations(points, m):
        diffs = [[C[p][i] - C[sub[0]][i] for i in range(m)] for p in sub[1:]]
        ker = kernel_basis(diffs, m)
        if len(ker) != 1:
            continue
        normal = ker[0]
        offset = sum(a * b for a, b in zip(normal, C[sub[0]]))
        vals = [sum(a * b for a, b in zip(normal, C[p])) for p in points]
        if all(v <= offset for v in vals):
            facets.add((normal, offset))
        elif all(v >= offset for v in vals):
            facets.add((tuple(-x for x in normal), -offset))

    def active(p):
        return [
            list(nl)
            for nl, off in facets
            if sum(a * b for a, b in zip(nl, C[p])) == off
        ]

    verts = [p for p in points if rank(active(p), m) == m]
    edges = []
    for v, w in itertools.combinations(verts, 2):
        act = [
            list(nl)
            for nl, off in facets
            if sum(a * b for a, b in zip(nl, C[v])) == off
            and sum(a * b for a, b in zip(nl, C[w])) == off
        ]
        if act and rank(act, m) == m - 1:
            edges.append(tuple(sorted((v, w))))
    return sorted(verts), sorted(edges)


def random_point_set(rng, dim, count, span=4):
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(0, span) for _ in range(dim)))
    return sorted(pts)


class TestSpannedLattice:
    def test_truncated_simplex_full(self):
        pts = conftest.truncated_simplex_apolar(2)
        base, lat = spanned_lattice(pts)
        assert lat.dimension == 2
        full = hnf([(1, -1, 0), (0, 1, -1)], 3)
        assert lattice_index(lat, full) == 1

    def test_pure_cubes_proper_sublattice(self):
        base, lat = spanned_lattice([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert lat.dimension == 2
        full = hnf([(1, -1, 0), (0, 1, -1)], 3)
        assert lattice_index(lat, full) == 9  # Smith form [3, 3]
        from oracles import smith_diagonal

        coeffs = [full.coordinates(v) for v in lat.basis]
        assert smith_diagonal([list(c) for c in coeffs]) == [3, 3]

    def test_single_point(self):
        base, lat = spanned_lattice([(1, 2, 0)])
        assert lat.dimension == 0
        assert base == (1, 2, 0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spanned_lattice([])


class TestHullStructure:
    def test_hexagon(self):
        model = hull_structure(conftest.truncated_simplex_apolar(2))
        assert len(model.vertices) == 6
        assert len(model.edges) == 6
        assert all(len(model.directions[v]) == 2 for v in model.vertices)

    def test_full_simplex_triangle(self):
        model = hull_structure(lattice_points_simplex(2, 3))
        assert set(model.vertices) == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
        assert len(model.edges) == 3

    def test_counterex3_against_oracle(self, counterex3):
        model = hull_structure(counterex3.apolar)
        verts, edges = oracle_hull(counterex3.apolar)
        assert sorted(model.vertices) == verts
        assert sorted(model.edges) == edges

    def test_p12_against_oracle(self, p12):
        model = hull_structure(p12.apolar)
        verts, edges = oracle_hull(p12.apolar)
        assert sorted(model.vertices) == verts
        assert sorted(model.edges) == edges

    def test_random_sets_against_oracle(self):
        rng = random.Random(2024)
        for _ in range(30):
            dim = rng.randint(2, 3)
            pts = random_point_set(rng, dim, rng.randint(4, 12))
            model = hull_structure(pts)
            verts, edges = oracle_hull(pts)
            assert sorted(model.vertices) == verts, pts
            assert sorted(model.edges) == edges, pts


def primitive_difference(w, v):
    diff = [a - b for a, b in zip(w, v)]
    g = gcd(*diff)
    return tuple(x // g for x in diff)


def assert_matches_oracle(pts):
    """hull_structure agrees with oracle_hull, and each vertex's directions
    are the primitive differences to its neighbours in sorted order."""
    model = hull_structure(pts)
    verts, edges = oracle_hull(pts)
    assert list(model.vertices) == verts, pts
    assert list(model.edges) == edges, pts
    assert set(model.directions) == set(verts)
    for v in verts:
        neighbours = sorted(w for e in edges for w in e if v in e and w != v)
        expected = tuple(primitive_difference(model.coords[w], model.coords[v]) for w in neighbours)
        assert model.directions[v] == expected, (pts, v)


def collinear_ray_sets():
    """Points at 1..3 steps along a few rays from a centre, plus the centre:
    only the farthest point on each edge ray is a vertex."""
    rng = random.Random(8080)
    for _ in range(25):
        dim = rng.randint(1, 3)
        centre = tuple(rng.randint(-2, 2) for _ in range(dim))
        pts = {centre}
        for _ in range(rng.randint(1, 4)):
            ray = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(ray):
                for k in range(1, rng.randint(2, 4)):
                    pts.add(tuple(c + k * r for c, r in zip(centre, ray)))
        yield sorted(pts)


class TestEdgeWalkMatchesOracle:
    """The edge walk against the brute-force facet enumeration."""

    def test_random_sets_dims_1_to_4(self):
        rng = random.Random(7071)
        for dim in range(1, 5):
            for _ in range(15):
                # a segment holds at most 5 points of random_point_set's box
                count = rng.randint(1, 5 if dim == 1 else 9)
                assert_matches_oracle(random_point_set(rng, dim, count))

    def test_single_point(self):
        model = hull_structure([(1, 2, 0)])
        assert model.vertices == ((1, 2, 0),)
        assert model.edges == ()
        assert model.directions == {(1, 2, 0): ()}
        assert_matches_oracle([(1, 2, 0)])

    def test_collinear_points_on_several_rays(self):
        for pts in collinear_ray_sets():
            assert_matches_oracle(pts)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_members(self, n):
        for spec in valid_partitions(n):
            assert_matches_oracle(family_system(spec).sys.apolar)


def assert_oracle_edges_survive(pts):
    """At every oracle vertex, each oracle edge's primitive direction
    survives the pair-sum filter, with the neighbour as its farthest point."""
    _, edges = oracle_hull(pts)
    _, _, coords = lattice_coordinates(pts)
    candidates = {}
    for e in edges:
        for v, w in (e, e[::-1]):
            if v not in candidates:
                candidates[v] = polytope._edge_candidates(v, coords)
            d = primitive_difference(coords[w], coords[v])
            assert d in candidates[v], (pts, v, w)
            assert candidates[v][d][1] == w, (pts, v, w)


class TestPairSumFilter:
    """polytope._edge_candidates never drops an edge."""

    def test_random_sets_dims_1_to_4(self):
        rng = random.Random(9191)
        for dim in range(1, 5):
            for _ in range(15):
                count = rng.randint(2, 5 if dim == 1 else 9)
                assert_oracle_edges_survive(random_point_set(rng, dim, count))

    def test_collinear_points_on_several_rays(self):
        for pts in collinear_ray_sets():
            assert_oracle_edges_survive(pts)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_members(self, n):
        for spec in valid_partitions(n):
            assert_oracle_edges_survive(family_system(spec).sys.apolar)

    @pytest.mark.parametrize("pts", [
        # (1,1), (1,2) and (2,1) are sums of two non-parallel differences
        [(x, y) for x in range(3) for y in range(3)],
        # (1,1) is half of (2,0) + (0,2): a multiple k*d with k = 2
        [(0, 0), (2, 0), (0, 2), (1, 1)],
    ])
    def test_corner_keeps_only_its_edges(self, pts):
        # only the two edges at (0,0) are left for an LP
        _, _, coords = lattice_coordinates(pts)
        corner = (0, 0)
        expected = {primitive_difference(coords[w], coords[corner]) for w in [(2, 0), (0, 2)]}
        assert set(polytope._edge_candidates(corner, coords)) == expected


class TestHullMatchesUnfilteredOracle:
    """hull_structure against an LP per direction with all others as columns."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_family_members(self, n):
        for spec in valid_partitions(n):
            pts = family_system(spec).sys.apolar
            assert hull_structure(pts) == oracles.unfiltered_hull_structure(pts), spec

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_subsets_of_3_delta(self, n):
        rng = random.Random(500 + n)
        points = lattice_points_simplex(n, 3)
        for _ in range(40):
            pts = rng.sample(points, rng.randint(1, len(points)))
            assert hull_structure(pts) == oracles.unfiltered_hull_structure(pts), pts


class TestSmoothness:
    def test_hexagon_smooth(self):
        cert = smoothness_check(conftest.truncated_simplex_apolar(2))
        assert cert.smooth
        assert cert.dim == 2
        assert all(r.edge_count == 2 and r.determinant == 1 for r in cert.records)

    def test_simplices_smooth(self):
        for n in range(2, 6):
            assert smoothness_check(lattice_points_simplex(n, 3)).smooth

    def test_counterex3_smooth(self, counterex3):
        assert smoothness_check(counterex3.apolar).smooth

    def test_p15_smooth(self, p15):
        assert smoothness_check(p15.apolar).smooth

    def test_p12_not_smooth(self, p12):
        # hull is simple with unimodular edge directions, but an edge's first
        # lattice point is missing from P, so a vertex semigroup is not free
        cert = smoothness_check(p12.apolar)
        assert not cert.smooth
        vertex, reason = cert.failure
        assert vertex in cert.model.vertices
        assert "first lattice point" in reason
        assert all(r.edge_count == 3 and r.determinant == 1 for r in cert.records)

    def test_single_point(self):
        cert = smoothness_check([(0, 3, 0)])
        assert cert.smooth and cert.dim == 0

    def test_segments(self):
        assert smoothness_check([(0,), (1,)]).smooth
        assert smoothness_check([(0,), (2,)]).smooth  # spans 2Z, unit in M
        assert smoothness_check([(0,), (1,), (2,), (3,)]).smooth
        cert = smoothness_check([(0,), (1,), (3,)])
        assert not cert.smooth  # semigroup {2,3} at the far vertex

    def test_non_simple_vertex(self):
        # square pyramid: the apex has four edges in a 3-dimensional hull
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        cert = smoothness_check(pts)
        assert not cert.smooth
        vertex, reason = cert.failure
        assert "edges" in reason

    def test_non_unimodular_vertex(self):
        # quadrilateral with primitive directions (-1,-2), (-2,-1) at (2,2)
        cert = smoothness_check([(0, 0), (1, 0), (0, 1), (2, 2)])
        assert not cert.smooth
        assert "det" in cert.failure[1]
        by_vertex = {r.vertex: r for r in cert.records}
        assert by_vertex[(2, 2)].determinant == 3

    def test_permutation_invariance(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.choice([2, 3])
            sys = conftest.random_artinian_system(rng, n)
            if len(sys.apolar) < 2:
                continue
            perm = list(range(n + 1))
            rng.shuffle(perm)
            permuted = [tuple(p[perm.index(i)] for i in range(n + 1)) for p in sys.apolar]
            assert (
                smoothness_check(sys.apolar).smooth
                == smoothness_check(permuted).smooth
            )


class TestSmoothCertificate:
    """is_smooth is the smoothness certificate's verdict, reached by a walk
    that stops at the first violating vertex."""

    @staticmethod
    def assert_equivalent(points):
        assert is_smooth(points) == smoothness_check(points).smooth, points

    @pytest.mark.parametrize("n", [2, 3])
    def test_bruteforce_minimal_orbits(self, n):
        smooth, non_smooth, _ = oracles.bruteforce_minimal_orbits(n)
        assert smooth and (non_smooth or n == 2)
        for key in sorted(smooth | non_smooth):
            self.assert_equivalent(MonomialSystem.from_generators(n, 3, key).apolar)

    def test_fixtures(self, p12, p15, counterex3, brenner_kaid):
        for sys in (p12, p15, counterex3, brenner_kaid):
            self.assert_equivalent(sys.apolar)
        assert not is_smooth(p12.apolar)
        assert is_smooth(p15.apolar)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_members(self, n):
        for spec in valid_partitions(n):
            points = family_system(spec).sys.apolar
            assert is_smooth(points) and smoothness_check(points).smooth, spec

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_subsets_of_3_delta(self, n):
        rng = random.Random(700 + n)
        points = lattice_points_simplex(n, 3)
        verdicts = set()
        for _ in range(300):
            pts = rng.sample(points, rng.randint(1, len(points)))
            self.assert_equivalent(pts)
            verdicts.add(is_smooth(pts))
        assert verdicts == {True, False}

    def test_stops_at_the_first_walked_vertex(self, monkeypatch):
        # a non-smooth minimal n=3 orbit whose lex-smallest point, where the
        # walk starts, has 5 edges in a 3-dimensional hull
        sys = parse_system(
            "S: x3^3 x2*x3^2 x2^2*x3 x2^3 x1*x3^2 x1*x2*x3 x1^3 x0*x2^2 x0^2*x1 x0^3", 3, 3
        )
        calls = []
        candidates = polytope._edge_candidates

        def counting(v, coords):
            calls.append(v)
            return candidates(v, coords)

        monkeypatch.setattr(polytope, "_edge_candidates", counting)
        assert not is_smooth(sys.apolar)
        assert calls == [min(sys.apolar)]
        calls.clear()
        cert = smoothness_check(sys.apolar)
        assert cert.failure == (min(sys.apolar), "vertex has 5 edges, expected 3")
        assert sorted(calls) == list(cert.model.vertices) == sorted(set(calls))


class TestLatticePredicates:
    def test_togliatti_contains_cubes(self, brenner_kaid):
        assert contains_all_simplex_vertices(brenner_kaid.apolar)

    def test_two_points_n1(self):
        assert contains_all_simplex_vertices([(2, 1), (1, 2)])

    def test_single_squarefree_false(self):
        assert not contains_all_simplex_vertices([(1, 1, 1)])

    def test_truncated_simplex_spans(self):
        for n in range(2, 5):
            assert spans_full_lattice(conftest.truncated_simplex_apolar(n))

    def test_pure_cubes_do_not_span(self):
        assert not spans_full_lattice([(3, 0, 0), (0, 3, 0), (0, 0, 3)])

    def test_family_spans(self, counterex3):
        assert spans_full_lattice(counterex3.apolar)

    def test_empty_point_set_rejected(self):
        with pytest.raises(InvalidArgumentError, match="empty point set"):
            spans_full_lattice([])

    def test_non_cubic_points_rejected(self):
        with pytest.raises(PreconditionError, match="degree-3 monomials"):
            spans_full_lattice([(1, 1, 0)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spans_full_lattice_matches_index_oracle(self, n):
        # HNF equality with the zero-sum lattice against index 1
        rng = random.Random(300 + n)
        points = lattice_points_simplex(n, 3)
        full = degree_lattice(n + 1)
        spanning = 0
        for _ in range(2000):
            sample = rng.sample(points, rng.randint(1, len(points)))
            expected = lattice_index(spanned_lattice(sample)[1], full) == 1
            assert spans_full_lattice(sample) == expected, sample
            spanning += expected
        assert 0 < spanning < 2000


@st.composite
def feasibility_problems(draw):
    """(A, b) with small integer entries; b is A x for some x >= 0 half the time."""
    m = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 5))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                      min_size=m, max_size=m))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
    else:
        b = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    return A, b


class TestIntegerSimplexMatchesFractionOracle:
    """The integer phase-1 simplex against the Fraction simplex it replaced."""

    @given(feasibility_problems())
    @settings(max_examples=400, deadline=None)
    def test_feasible(self, problem):
        A, b = problem
        assert polytope._feasible(A, b) == oracles.fraction_feasible(A, b)

    def test_hull_structure_unchanged(self, monkeypatch, p12, p15):
        rng = random.Random(404)
        point_sets = [random_point_set(rng, rng.randint(2, 4), rng.randint(3, 9)) for _ in range(40)]
        point_sets += [conftest.truncated_simplex_apolar(3), p12.apolar, p15.apolar]
        integer = [hull_structure(pts) for pts in point_sets]
        monkeypatch.setattr(polytope, "_feasible", oracles.fraction_feasible)
        assert [hull_structure(pts) for pts in point_sets] == integer
