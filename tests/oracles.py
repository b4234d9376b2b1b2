"""Reference oracles for the equivalence tests.  Test-only.

- The rational (Fraction) elimination loops that the integer core in
  ``togliatti.linalg`` and the integer simplex in ``togliatti.polytope``
  replaced, kept verbatim in their arithmetic so the tests can require the
  production code to return identical results.
- Minimality straight from the subset definition, an exponential
  cross-check of the quadric criterion at small n.
"""

import itertools
from fractions import Fraction
from math import gcd

from togliatti import lefschetz
from togliatti.errors import PreconditionError
from togliatti.monomials import MonomialSystem


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
