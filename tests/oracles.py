"""Reference oracles for the equivalence tests.  Test-only.

- The rational (Fraction) elimination loops that the integer core in
  ``togliatti.linalg`` and the integer simplex in ``togliatti.polytope``
  replaced, kept verbatim in their arithmetic so the tests can require the
  production code to return identical results; likewise the Fraction
  lattice coordinates that ``LatticeBasis.coordinates`` replaced.
- The RREF read off the integer core, matrix-vector products, the Smith
  normal form, lattice indices and the Bareiss determinant: tools the tests
  check the production code with, which no verdict needs.
- Minimality straight from the subset definition, an exponential
  cross-check of the quadric criterion at small n.
- The canonical form by a scan of all of S_{n+1}, sorting the relabelled
  generators for every permutation, that the position-by-position search
  in ``togliatti.monomials.canonical_form`` replaced.
- Family membership by comparing canonical forms, the two S_{n+1} orbit
  scans that ``family.member_partition`` replaced.
- The components of the ``G_P`` complement by graph search, and the
  pairwise check that each is complete, that the one neighbourhood pass in
  ``graphs.complement_groups`` replaced.
- The hull's edge rule before the pair-sum filter: one LP per primitive
  direction at a vertex, against all the other directions.
- The subset search that the orbit-first search in
  ``classify.enumerate_minimal_smooth`` replaced: every artinian S within
  the cardinality bound, one quadric kernel each.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd, inf

from togliatti import lefschetz, linalg, polytope
from togliatti.errors import PreconditionError
from togliatti.family import family_system, valid_partitions
from togliatti.monomials import (
    MonomialSystem,
    _apply_perm,
    canonical_form,
    lattice_points_simplex,
)


def fraction_rref(rows, ncols=None):
    """ORACLE: rational Gauss-Jordan with first-nonzero, row-major pivoting."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows, ncols=None):
    """ORACLE: reduced row echelon form from the integer elimination core.

    Each pivot row of ``linalg._eliminate`` divided by its pivot, as
    Fractions.  Returns (rref rows, pivot column list).
    """
    m, pivots = linalg._eliminate(rows, ncols)
    reduced = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return reduced + [[Fraction(x) for x in row] for row in m[len(pivots):]], pivots


def matvec(rows, vec):
    """ORACLE: the matrix-vector product."""
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def fraction_rank(rows, ncols=None):
    """ORACLE: rank over Q as the pivot count of the rational RREF."""
    if not rows:
        return 0
    return len(fraction_rref(rows, ncols)[1])


def _fraction_primitive(vec):
    """ORACLE: rational vector scaled to a primitive integer vector, positive leading entry."""
    denom = 1
    for x in vec:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    ints = [int(Fraction(x) * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def fraction_kernel_basis(rows, ncols):
    """ORACLE: one normalised kernel vector per free column of the rational RREF."""
    if not rows:
        return [
            _fraction_primitive([1 if i == j else 0 for i in range(ncols)])
            for j in range(ncols)
        ]
    m, pivots = fraction_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(_fraction_primitive(v))
    return basis


def fraction_feasible(A, b):
    """ORACLE: feasibility of A x = b, x >= 0 by a Fraction phase-1 simplex
    with Bland's rule."""
    m = len(A)
    if m == 0:
        return True
    ncols = len(A[0])
    tab = []
    for row, rhs in zip(A, b):
        row = [Fraction(x) for x in row] + [Fraction(rhs)]
        if row[-1] < 0:
            row = [-x for x in row]
        tab.append(row)
    cost = [sum(tab[i][j] for i in range(m)) for j in range(ncols + 1)]
    basis = [ncols + i for i in range(m)]
    while True:
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 simplex unbounded")
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return cost[-1] == 0


def minimality_by_subset_definition(sys: MonomialSystem) -> bool:
    """ORACLE: no proper artinian subset of S fails WLP.

    Exponential; used as an independent cross-check at small n only.
    """
    if sys.d != 3:
        raise PreconditionError("subset minimality check is specific to cubics")
    if not sys.artinian:
        raise PreconditionError("system is not artinian")
    wlp = lefschetz.fails_wlp_in_degree_dminus1(sys)
    if not wlp.fails:
        raise PreconditionError("system does not fail WLP")
    cubes = [m for m in sys.generators if max(m) == 3]
    others = [m for m in sys.generators if max(m) < 3]
    for k in range(len(others)):
        for subset in itertools.combinations(others, k):
            sub = MonomialSystem.from_generators(sys.n, 3, cubes + list(subset))
            if lefschetz.fails_wlp_in_degree_dminus1(sub).fails:
                return False
    return True


def rational_coordinates(lattice, vec):
    """ORACLE: coordinates of vec in the lattice's basis over Q, or None if
    outside the span, by Fraction back-substitution."""
    residual = [Fraction(x) for x in vec]
    coords = []
    for row in lattice.basis:
        pc = next(j for j, x in enumerate(row) if x != 0)
        c = residual[pc] / row[pc]
        coords.append(c)
        residual = [a - c * b for a, b in zip(residual, row)]
    if any(x != 0 for x in residual):
        return None
    return coords


def fraction_coordinates(lattice, vec):
    """ORACLE: integer lattice coordinates, or None, read off rational_coordinates."""
    coords = rational_coordinates(lattice, vec)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    return tuple(int(c) for c in coords)


def smith_diagonal(rows) -> list:
    """ORACLE: invariant factors of an integer matrix (Smith normal form diagonal).

    Returns min(rows, cols) non-negative integers, each dividing the next;
    trailing zeros when the rank is deficient.
    """
    if not rows or not rows[0]:
        return []
    m = [list(map(int, row)) for row in rows]
    nrows, ncols = len(m), len(m[0])
    size = min(nrows, ncols)
    diag = []

    def smallest_nonzero(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < size:
        pos = smallest_nonzero(t)
        if pos is None:
            break
        i, j = pos
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        # clear row and column t; restart if a remainder appears
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                for row in m:
                    row[j] -= q * row[t]
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: if some remaining entry is not divisible by the
        # pivot, fold its row into row t and redo this step
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue
        diag.append(abs(m[t][t]))
        t += 1
    while len(diag) < size:
        diag.append(0)
    return diag


def det_bareiss(rows) -> int:
    """ORACLE: exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lattice_index(sub, sup):
    """ORACLE: index [sup : sub] as an integer, or inf when rank(sub) < rank(sup).

    Raises ValueError unless every basis vector of sub lies in sup.
    """
    if sub.ambient != sup.ambient:
        raise ValueError("lattices live in different ambient spaces")
    coeffs = []
    for v in sub.basis:
        coords = sup.coordinates(v)
        if coords is None:
            raise ValueError(f"{v} is not in the super-lattice")
        coeffs.append(coords)
    if sub.dimension < sup.dimension:
        return inf
    return abs(det_bareiss(coeffs))


def canonical_form_by_orbit_scan(sys: MonomialSystem) -> MonomialSystem:
    """ORACLE: Lexicographically smallest encoding of sys over all coordinate permutations.

    Two systems are equivalent under relabelling of variables iff their
    canonical forms are equal.  Full orbit enumeration over S_{n+1}; fine for
    the desk-scale n this library targets.
    """
    best = None
    for perm in itertools.permutations(range(sys.n + 1)):
        gens = tuple(sorted(_apply_perm(m, perm) for m in sys.generators))
        if best is None or gens < best:
            best = gens
    return MonomialSystem.from_generators(sys.n, sys.d, best)


@functools.lru_cache(maxsize=None)
def _family_orbits(n):
    return {
        canonical_form_by_orbit_scan(family_system(spec).sys).encoding(): spec
        for spec in valid_partitions(n)
    }


def member_partition_by_canonical_form(sys: MonomialSystem):
    """ORACLE: the partition whose family system sys is equivalent to, or None,
    by comparing canonical forms (a full S_{n+1} orbit scan of sys)."""
    if sys.d != 3:
        return None
    return _family_orbits(sys.n).get(canonical_form_by_orbit_scan(sys).encoding())


def complement_components_by_search(gp):
    """ORACLE: the components of the complement of G_P by graph search, as
    sorted vertex lists ordered by least vertex, and whether every pair of
    vertices in every component is joined.  Returns (components, complete).
    """
    adj = gp.complement_neighbours()
    seen = set()
    components = []
    for start in range(gp.n + 1):
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
    complete = True
    for comp in components:
        for i in comp:
            for j in comp:
                if i != j and j not in adj[i]:
                    complete = False
    return components, complete


def unfiltered_hull_structure(points):
    """ORACLE: ``polytope.hull_structure`` without the pair-sum filter.

    The same edge walk, but every primitive direction at a vertex is decided
    by one exact LP with all the other directions as columns.
    """
    points = tuple(sorted(set(map(tuple, points))))
    base, lattice, coords = polytope.lattice_coordinates(points)
    m = lattice.dimension
    directions = {}
    edges = set()
    stack = [points[0]]
    while stack:
        v = stack.pop()
        if v in directions:
            continue
        cv = coords[v]
        farthest = {}  # primitive direction from v -> (multiple, point)
        for p in points:
            if p != v:
                diff = [a - b for a, b in zip(coords[p], cv)]
                k = gcd(*diff)
                d = tuple(x // k for x in diff)
                if d not in farthest or k > farthest[d][0]:
                    farthest[d] = (k, p)
        neighbours = []
        for d, (_, w) in farthest.items():
            others = [g for g in farthest if g != d]
            if others and polytope._feasible([[g[i] for g in others] for i in range(m)], list(d)):
                continue
            neighbours.append((w, d))
            edges.add((min(v, w), max(v, w)))
            stack.append(w)
        directions[v] = tuple(d for _, d in sorted(neighbours))
    return polytope.LatticePolytopeModel(
        points, base, lattice, coords, tuple(sorted(directions)), tuple(sorted(edges)), directions
    )


def bruteforce_minimal_orbits(n):
    """ORACLE: the minimal orbits by the subset search, split by smoothness.

    Every S made of the pure cubes and other cubic monomials, up to
    ``lefschetz.cardinality_bound`` in all, in sorted subset order: kept when
    the quadric space of its apolar set is one-dimensional and the unique
    quadric misses every generator, then deduplicated by canonical form.
    Returns (smooth, non_smooth, stats): the canonical encodings of the
    smooth and of the non-smooth minimal orbits, and the subset search's
    counters (candidates, quadric_filtered, minimality_filtered,
    duplicate_orbit, smoothness_filtered).
    """
    all_points = lattice_points_simplex(n, 3)
    cubes = [m for m in all_points if max(m) == 3]
    pool = [m for m in all_points if max(m) < 3]
    max_extra = lefschetz.cardinality_bound(n, 3) - len(cubes)
    stats = dict.fromkeys(
        ("candidates", "quadric_filtered", "minimality_filtered", "duplicate_orbit",
         "smoothness_filtered"),
        0,
    )
    smooth, non_smooth = set(), set()
    for k in range(max_extra + 1):
        for extras in itertools.combinations(pool, k):
            stats["candidates"] += 1
            gens = cubes + list(extras)
            gen_set = set(gens)
            apolar = [m for m in all_points if m not in gen_set]
            space = lefschetz.quadric_space(apolar, n)
            if len(space) != 1:
                stats["quadric_filtered"] += 1
                continue
            if any(space[0].evaluate(p) == 0 for p in gens):
                stats["minimality_filtered"] += 1
                continue
            rep = canonical_form(MonomialSystem.from_generators(n, 3, gens))
            key = rep.encoding()
            if key in smooth or key in non_smooth:
                stats["duplicate_orbit"] += 1
                continue
            if polytope.smoothness_check(rep.apolar).smooth:
                smooth.add(key)
            else:
                stats["smoothness_filtered"] += 1
                non_smooth.add(key)
    return smooth, non_smooth, stats
