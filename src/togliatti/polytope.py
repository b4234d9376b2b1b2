"""Exact convex hull, lattice and smoothness machinery.

The hull is found by a walk over its edge graph, in coordinates of the lattice
M spanned by the point configuration.  At each vertex a pair-sum filter first
drops the directions that are positive multiples of a sum of two non-parallel
differences, which no edge is; each surviving direction is then decided by one
small exact feasibility LP against the other survivors, solved by a phase-1
simplex on an integer tableau with Bland's rule.  Smoothness is the vertex
criterion: every hull vertex has exactly m edges whose primitive directions
form a basis of M, and the first lattice point along every edge belongs to
the configuration.
The last condition makes the vertex semigroups free; without it the variety
is merely quasi-smooth (unimodular hull, non-normal chart).
smoothness_check walks the whole hull and reports the lex-smallest violating
vertex; is_smooth, the search's verdict, tests each vertex as the walk
reaches it and stops at the first violating one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from . import linalg
from .errors import InvalidArgumentError, PreconditionError
from .linalg import LatticeBasis


# ---------------------------------------------------------------------------
# exact phase-1 simplex

def _feasible(A, b):
    """Exact feasibility of A x = b, x >= 0, for integer A and b.

    Phase-1 simplex with Bland's anti-cycling rule on an integer tableau; A is
    a list of rows.  Every row update multiplies by the pivot, which is
    positive, and divides by a positive content, so each tableau row and the
    cost row stay positive multiples of the rational tableau's: signs, ratio
    order and therefore every entering and leaving choice are the rational
    simplex's.
    """
    m = len(A)
    if m == 0:
        return True
    ncols = len(A[0])
    # tableau rows: [A | rhs], rhs made non-negative, artificial basis implied
    tab = [
        list(row) + [rhs] if rhs >= 0 else [-x for x in row] + [-rhs]
        for row, rhs in zip(A, b)
    ]
    # objective: minimize sum of artificials == sum of rows (in terms of
    # original columns, cost row z_j - c_j = sum_i a_ij, value = sum_i b_i)
    cost = [sum(col) for col in zip(*tab)]
    basis = [ncols + i for i in range(m)]  # artificial indices, cost-tracked implicitly
    while True:
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            break
        # ratio test rhs_i / a_i by cross-multiplying, Bland tie-break on row basis index
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen; defensive
            raise AssertionError("phase-1 simplex unbounded")
        pivot_row = tab[leave]
        pv = pivot_row[enter]
        for i in range(m):
            f = tab[i][enter]
            if f and i != leave:
                tab[i] = linalg._combine(pv, tab[i], f, pivot_row)
        cost = linalg._combine(pv, cost, cost[enter], pivot_row)
        basis[leave] = enter
    return cost[-1] == 0


# ---------------------------------------------------------------------------
# lattice coordinates

def spanned_lattice(points):
    """HNF basis of the lattice spanned by differences from the lex-smallest point.

    Returns (base point, LatticeBasis).
    """
    points = sorted(set(map(tuple, points)))
    if not points:
        raise InvalidArgumentError("empty point set")
    base = points[0]
    ambient = len(base)
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    return base, linalg.hnf(diffs, ambient)


def lattice_coordinates(points):
    """Points re-expressed in coordinates of the lattice they span.

    Returns (base, lattice, coords dict point -> integer tuple of length m).
    """
    base, lattice = spanned_lattice(points)
    coords = {}
    for p in sorted(set(map(tuple, points))):
        diff = tuple(a - b for a, b in zip(p, base))
        c = lattice.coordinates(diff)
        assert c is not None  # every point lies in the spanned lattice
        coords[p] = c
    return base, lattice, coords


# ---------------------------------------------------------------------------
# hull structure

@dataclass(frozen=True)
class LatticePolytopeModel:
    points: tuple
    base: tuple
    lattice: LatticeBasis
    coords: dict  # point -> tuple in Z^m
    vertices: tuple
    edges: tuple  # sorted pairs of vertices
    directions: dict  # vertex -> primitive edge directions, by sorted neighbour

    @property
    def dim(self) -> int:
        return self.lattice.dimension


def _edge_candidates(v, coords) -> dict:
    """The directions at v that survive the pair-sum filter.

    The other points are grouped by primitive direction from v, and every
    direction that is a positive multiple of y + z, for two non-parallel
    differences y = p - v and z = q - v, is dropped (see hull_structure for
    why no edge is).  Returns {primitive direction: (multiple, farthest
    point along it)} for the survivors.

    Each difference is packed into one integer in balanced base B = 4M + 1,
    M the largest absolute coordinate of a difference: the packing is
    additive and injective on vectors with coordinates in [-2M, 2M], where
    every pair sum and every multiple k*d that could equal one lies, so the
    pair sums that hit a direction are one set intersection per difference.
    """
    cv = coords[v]
    farthest = {}  # primitive direction from v -> (multiple, point)
    diffs = {}  # difference p - v -> its primitive direction
    for p, c in coords.items():
        if p != v:
            diff = tuple(a - b for a, b in zip(c, cv))
            k = gcd(*diff)
            d = tuple(x // k for x in diff)
            diffs[diff] = d
            if d not in farthest or k > farthest[d][0]:
                farthest[d] = (k, p)
    box = 2 * max((max(map(abs, diff)) for diff in diffs), default=0)  # 2M
    base = 2 * box + 1

    def pack(vec):
        code = 0
        for x in reversed(vec):
            code = code * base + x
        return code

    multiples = {}  # packed k*d -> d, for every k*d inside [-2M, 2M]^m
    for d in farthest:
        code = pack(d)
        for k in range(1, box // max(map(abs, d)) + 1):
            multiples[k * code] = d
    direction_of = {pack(diff): d for diff, d in diffs.items()}
    codes = list(direction_of)
    hits = set(multiples).intersection
    dropped = set()
    for i, y in enumerate(codes):
        for s in hits(map(y.__add__, codes[i + 1:])):
            d = multiples[s]
            # y or z = s - y along d is exactly the parallel case: if
            # y + z = k*d and y = -a*d, then z = (k + a)*d
            if d not in (direction_of[y], direction_of[s - y]):
                dropped.add(d)
    return {d: kp for d, kp in farthest.items() if d not in dropped}


def hull_structure(points) -> LatticePolytopeModel:
    """Vertices and edges of conv(points) by a walk over the edge graph
    (_hull_walk)."""
    points = tuple(sorted(set(map(tuple, points))))
    base, lattice, coords = lattice_coordinates(points)
    walked = dict(_hull_walk(points, coords, lattice.dimension))
    edges = {(min(v, w), max(v, w)) for v, nbrs in walked.items() for w, _ in nbrs}
    directions = {v: tuple(d for _, d in nbrs) for v, nbrs in walked.items()}
    return LatticePolytopeModel(
        points, base, lattice, coords, tuple(sorted(walked)), tuple(sorted(edges)), directions
    )


def _hull_walk(points, coords, m):
    """Yield (v, neighbours) for each vertex v of conv(points) as the walk
    pops it; neighbours is the sorted tuple of (w, d), w the vertex across
    the edge from v with primitive direction d.

    The lex-smallest point is a vertex, and the edge graph of a polytope is
    connected, so every vertex is reached from it along edges.  At a vertex
    v the other points are grouped by primitive direction from v; a
    direction spans an edge iff it is an extreme ray of the cone C they
    generate, and the farthest point along it is the neighbour across that
    edge.

    Most directions are ruled out without an LP (_edge_candidates): a
    direction d that is a positive multiple of y + z, for two differences
    y = p - v and z = q - v with y not parallel to d, is no extreme ray.
    C is pointed, since v is a vertex, and an extreme ray of C is a face; a
    face that contains y + z contains both y and z, so d could only be
    extreme if y were parallel to d, and then z = (y + z) - y is parallel
    to d too.  (Without that condition, d + 2d = 3d would rule out true
    edges.)  Hence every extreme ray survives the filter.  A pointed cone is
    generated by its extreme rays, so the survivors generate C, and a
    survivor is an extreme ray iff it is not a non-negative combination of
    the other survivors: one exact feasibility LP with the other survivors
    as columns.  A vertex's LPs run when it is popped, so a caller that
    stops consuming stops the walk.
    """
    seen = set()
    stack = [points[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        candidates = _edge_candidates(v, coords)
        neighbours = []
        for d, (_, w) in candidates.items():
            others = [g for g in candidates if g != d]
            if others and _feasible([[g[i] for g in others] for i in range(m)], list(d)):
                continue
            neighbours.append((w, d))
            stack.append(w)
        yield v, tuple(sorted(neighbours))


# ---------------------------------------------------------------------------
# smoothness

@dataclass(frozen=True)
class VertexRecord:
    vertex: tuple
    edge_count: int
    directions: tuple  # primitive edge directions in M-coordinates
    determinant: Optional[int]  # None when the vertex is not simple


@dataclass(frozen=True)
class SmoothnessCertificate:
    smooth: bool
    dim: int
    records: tuple
    failure: Optional[tuple]  # (vertex, reason) for the lex-smallest violating vertex
    model: LatticePolytopeModel


def smoothness_check(points) -> SmoothnessCertificate:
    """Vertex-by-vertex check, in the lattice spanned by the points, that every
    vertex is simple, its primitive edge directions are unimodular, and each
    edge's first lattice point is itself one of the points (free semigroup).

    The whole hull is walked and the failure, if any, is the lex-smallest
    violating vertex with its reason."""
    model = hull_structure(points)
    m, point_set = model.dim, set(model.points)
    records = tuple(_record(v, model.directions[v], m) for v in model.vertices)
    failure = None
    for r in records:
        reason = _violation(r, m, model.lattice.basis, point_set)
        if reason is not None:
            failure = r.vertex, reason
            break
    return SmoothnessCertificate(failure is None, m, records, failure, model)


def is_smooth(points) -> bool:
    """smoothness_check(points).smooth, with each vertex tested as the hull
    walk pops it and the walk stopped at the first violating one, which
    only a non-smooth polytope has."""
    points = tuple(sorted(set(map(tuple, points))))
    _, lattice, coords = lattice_coordinates(points)
    m, point_set = lattice.dimension, set(points)
    return not any(
        _violation(_record(v, tuple(d for _, d in neighbours), m), m, lattice.basis, point_set)
        for v, neighbours in _hull_walk(points, coords, m)
    )


def _record(v, dirs, m) -> VertexRecord:
    return VertexRecord(v, len(dirs), dirs, linalg.abs_det(dirs) if len(dirs) == m else None)


def _violation(r: VertexRecord, m, basis, point_set) -> Optional[str]:
    """Why the vertex of record r breaks the vertex criterion in an
    m-dimensional lattice with the given basis, or None when it does not."""
    v = r.vertex
    if r.determinant is None:
        return f"vertex has {r.edge_count} edges, expected {m}"
    if r.determinant != 1:
        return f"primitive edge directions have |det| = {r.determinant}"
    for d in r.directions:
        # first lattice point along the edge, back in ambient coordinates
        step = tuple(v[j] + sum(d[i] * basis[i][j] for i in range(m)) for j in range(len(v)))
        if step not in point_set:
            return f"first lattice point {step} along an edge is not in the set"
    return None


# ---------------------------------------------------------------------------
# lattice predicates on cubic point sets

def _require_cubics(points):
    points = tuple(sorted(set(map(tuple, points))))
    if not points:
        raise InvalidArgumentError("empty point set")
    if any(sum(p) != 3 for p in points):
        raise PreconditionError("points must be degree-3 monomials (d = 3)")
    return points


def contains_all_simplex_vertices(points) -> bool:
    """Do all pure cubes x_i^3 lie in the affine lattice spanned by the points?"""
    points = _require_cubics(points)
    n1 = len(points[0])
    base, lattice = spanned_lattice(points)
    for i in range(n1):
        cube = tuple(3 if j == i else 0 for j in range(n1))
        diff = tuple(a - b for a, b in zip(cube, base))
        if not lattice.contains(diff):
            return False
    return True


def degree_lattice(n1: int) -> LatticeBasis:
    """The full difference lattice of 3*Delta: integer vectors with zero coordinate sum."""
    gens = []
    for i in range(n1 - 1):
        v = [0] * n1
        v[i], v[i + 1] = 1, -1
        gens.append(tuple(v))
    return linalg.hnf(gens, n1)


def spans_full_lattice(points) -> bool:
    """Does the point set span the full zero-sum lattice (index 1)?"""
    points = _require_cubics(points)
    n1 = len(points[0])
    _, lattice = spanned_lattice(points)
    return lattice == degree_lattice(n1)  # HNF bases are unique
