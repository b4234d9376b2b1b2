"""Reference oracles for the equivalence tests.  Test-only.

- The rational (Fraction) elimination loops that the integer core in
  ``togliatti.linalg`` and the integer simplex in ``togliatti.polytope``
  replaced, kept verbatim in their arithmetic so the tests can require the
  production code to return identical results; likewise the Fraction
  lattice coordinates that ``LatticeBasis.coordinates`` replaced.
- The RREF read off the integer core, matrix-vector products and the Smith
  normal form: tools the tests check the production code with, which no
  verdict needs.
- Minimality straight from the subset definition, an exponential
  cross-check of the quadric criterion at small n.
- Family membership by comparing canonical forms, the two S_{n+1} orbit
  scans that ``family.member_partition`` replaced.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd

from togliatti import lefschetz, linalg
from togliatti.errors import PreconditionError
from togliatti.family import family_system, valid_partitions
from togliatti.monomials import MonomialSystem, canonical_form


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


@functools.lru_cache(maxsize=None)
def _family_orbits(n):
    return {
        canonical_form(family_system(spec).sys).encoding(): spec
        for spec in valid_partitions(n)
    }


def member_partition_by_canonical_form(sys: MonomialSystem):
    """ORACLE: the partition whose family system sys is equivalent to, or None,
    by comparing canonical forms (a full S_{n+1} orbit scan of sys)."""
    if sys.d != 3:
        return None
    return _family_orbits(sys.n).get(canonical_form(sys).encoding())
