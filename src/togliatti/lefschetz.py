"""Algebraic predicates on monomial systems.

Multiplication by the sum of the variables in degree d-1 (the one Lefschetz
element that matters for monomial ideals), hyperplane-restriction dependence,
the space of hyperquadrics through the apolar points, minimality, and the
count of Laplace equations of order d-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple, Optional

from . import linalg
from .errors import PreconditionError
from .monomials import MonomialSystem, _compositions, lattice_points_simplex


# ---------------------------------------------------------------------------
# small exact polynomial helpers (dict: exponent tuple -> int coeff)

def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def poly_from_coeffs(basis, coeffs):
    return {m: c for m, c in zip(basis, coeffs) if c}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicationMap:
    """Matrix of multiplication by x_0 + ... + x_n from (R/I)_{d-1} to (R/I)_d.

    Rows are indexed by target monomials (degree-d monomials not in S, sorted),
    columns by source monomials (all degree-(d-1) monomials, sorted).
    """

    source: tuple
    target: tuple
    matrix: tuple  # tuple of row tuples, integer entries


class WlpResult(NamedTuple):
    fails: bool
    witness: Optional[dict]  # degree-(d-1) kernel form, or None


def _require_artinian(sys: MonomialSystem):
    if not sys.artinian:
        raise PreconditionError("system is not artinian: some pure power is missing from S")


def cardinality_bound(n: int, d: int) -> int:
    """C(n+d-1, n-1): the largest |S| for which WLP failure is a Laplace equation."""
    return comb(n + d - 1, n - 1)


def cardinality_ok(sys: MonomialSystem) -> bool:
    """|S| within the bound that makes the Laplace equation non-trivial."""
    return len(sys.generators) <= cardinality_bound(sys.n, sys.d)


def build_multiplication_map(sys: MonomialSystem) -> MultiplicationMap:
    _require_artinian(sys)
    n, d = sys.n, sys.d
    source = tuple(lattice_points_simplex(n, d - 1)) if d >= 2 else ((0,) * (n + 1),)
    gens = set(sys.generators)
    target = tuple(m for m in lattice_points_simplex(n, d) if m not in gens)
    index = {m: r for r, m in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for c, mono in enumerate(source):
        for i in range(n + 1):
            prod = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            r = index.get(prod)
            if r is not None:
                rows[r][c] += 1
    return MultiplicationMap(source, target, tuple(tuple(r) for r in rows))


def fails_wlp_in_degree_dminus1(sys: MonomialSystem) -> WlpResult:
    """WLP failure in degree d-1, witnessed by a kernel form when it fails.

    The verdict is exact for every |S|; only its reading as a Laplace
    equation needs the bound that cardinality_ok tests.
    """
    _require_artinian(sys)
    mm = build_multiplication_map(sys)
    kernel = linalg.kernel_basis(list(mm.matrix), len(mm.source))
    if not kernel:
        return WlpResult(False, None)
    return WlpResult(True, poly_from_coeffs(mm.source, kernel[0]))


def restricted_dependence(sys: MonomialSystem) -> bool:
    """Do the generators become linearly dependent on the hyperplane x_n = -(x_0+...+x_{n-1})?

    For monomial ideals this single hyperplane decides the generic one.
    """
    _require_artinian(sys)
    n, d = sys.n, sys.d
    basis = {m: i for i, m in enumerate(_compositions(d, n))}
    rows = []
    for gen in sys.generators:
        row = [0] * len(basis)
        head = gen[:n]
        for part, coeff in _power_of_neg_sum(gen[n], n):
            key = tuple(h + p for h, p in zip(head, part))
            row[basis[key]] += coeff
        rows.append(row)
    return linalg.rank(rows, len(basis)) < len(sys.generators)


def _power_of_neg_sum(e, n):
    """Expansion of (-(x_0+...+x_{n-1}))^e as (exponent tuple, coefficient) pairs."""
    sign = (-1) ** e
    for part in _compositions(e, n):
        coeff = factorial(e)
        for p in part:
            coeff //= factorial(p)
        yield part, sign * coeff


# ---------------------------------------------------------------------------
# hyperquadrics

@lru_cache(maxsize=None)
def quadric_pairs(n1: int) -> tuple:
    """Column order of the quadric coefficients in n1 variables: the squares
    (i, i), then the pairs (i, j), i < j, in lex order."""
    squares = tuple((i, i) for i in range(n1))
    return squares + tuple(itertools.combinations(range(n1), 2))


@dataclass(frozen=True)
class QuadricForm:
    """Symmetric quadratic form sum mu_i x_i^2 + sum_{i<j} mu_{i,j} x_i x_j."""

    diag: tuple
    cross: tuple  # entries in lex order of pairs (i,j), i < j

    def _terms(self):
        """(coefficient, (i, j)) in quadric_pairs order."""
        return zip(self.coeff_vector(), quadric_pairs(len(self.diag)))

    def evaluate(self, point):
        return sum(mu * point[i] * point[j] for mu, (i, j) in self._terms())

    @classmethod
    def from_coeff_vector(cls, vec, n1):
        return cls(tuple(vec[:n1]), tuple(vec[n1:]))

    def coeff_vector(self):
        return self.diag + self.cross

    def __str__(self):
        terms = [
            f"{mu}*x{i}^2" if i == j else f"{mu}*x{i}*x{j}"
            for mu, (i, j) in self._terms()
            if mu
        ]
        return " + ".join(terms) if terms else "0"


def quadric_evaluation_row(point):
    """Row (a_0^2, ..., a_n^2, a_0 a_1, ..., a_{n-1} a_n) of the quadric evaluation matrix."""
    return [point[i] * point[j] for i, j in quadric_pairs(len(point))]


def quadric_space(points, n: int) -> list:
    """Basis of quadratic forms on Z^{n+1} vanishing on every given point.

    Empty point set yields all C(n+2,2) quadrics.
    """
    ncols = comb(n + 2, 2)
    rows = [quadric_evaluation_row(p) for p in sorted(points)]
    kernel = linalg.kernel_basis(rows, ncols)
    return [QuadricForm.from_coeff_vector(v, n + 1) for v in kernel]


class MinimalityResult(NamedTuple):
    minimal: bool
    quadric: Optional[QuadricForm]  # unique quadric when dim == 1
    violation: Optional[tuple]  # (point in S, quadric vanishing there) when not minimal


def is_minimal_togliatti(sys: MonomialSystem) -> MinimalityResult:
    """Minimality via the hyperquadric criterion.

    Minimal iff the space of quadrics through P is one-dimensional and the
    unique quadric misses every point of 3*Delta \\ P (= S).
    """
    if sys.d != 3:
        raise PreconditionError("minimality criterion is specific to cubics (d=3)")
    _require_artinian(sys)
    space = quadric_space(sys.apolar, sys.n)
    if not space:
        raise PreconditionError("system does not fail WLP: no quadric through P")
    if len(space) > 1:
        # one more linear condition on a space of dimension >= 2 leaves a
        # nonzero quadric: through P and the first generator point
        p = sys.generators[0]
        witness = quadric_space(sys.apolar + (p,), sys.n)[0]
        return MinimalityResult(False, None, (p, witness))
    quadric = space[0]
    for p in sys.generators:
        if quadric.evaluate(p) == 0:
            return MinimalityResult(False, None, (p, quadric))
    return MinimalityResult(True, quadric, None)


# ---------------------------------------------------------------------------
# Laplace equations

def laplace_delta(points, n: int) -> int:
    """Number of independent Laplace equations of order d-1 of the monomial
    map given by points, all of degree d.

    Order d-1 is the one whose equations correspond to WLP failure in degree
    d-1 (order 2 for cubics).  The osculating matrix has rows indexed by
    derivative orders alpha with |alpha| <= d-1 and columns by the monomials
    x^a in the point set; the entry is
    (prod_i a_i (a_i - 1) ... (a_i - alpha_i + 1)) * x^{a - alpha}.  Scaling
    column a by x^{-a} and row alpha by x^{alpha} (units in the function
    field) leaves the rank unchanged and turns every entry into the constant
    falling-factorial coefficient, so the function-field rank is computed
    exactly as an integer matrix rank.  The count is C(n+d-1, d-1) minus
    that rank.
    """
    points = sorted(points)
    if not points:
        raise PreconditionError("empty point set has no parametrization")
    degrees = set(map(sum, points))
    if len(degrees) > 1:
        raise PreconditionError(f"points of mixed degrees {sorted(degrees)}")
    if linalg.rank([list(p) for p in points], n + 1) < n + 1:
        raise PreconditionError(
            "degenerate parametrization: exponent matrix rank below n+1"
        )
    s = degrees.pop() - 1
    rows = [[_falling(a, alpha) for a in points] for alpha in _derivative_orders(n, s)]
    return comb(n + s, s) - linalg.rank(rows, len(points))


def _derivative_orders(n, s):
    for total in range(s + 1):
        yield from _compositions(total, n + 1)


def _falling(a, alpha):
    prod = 1
    for ai, ki in zip(a, alpha):
        for t in range(ki):
            prod *= ai - t
    return prod


def witness_product_in_ideal(sys: MonomialSystem, witness: dict) -> bool:
    """Exact check that (x_0+...+x_n) * witness is supported only on S."""
    n = sys.n
    linear = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 1
        linear[tuple(e)] = 1
    product = poly_mul(linear, witness)
    gens = set(sys.generators)
    return all(m in gens for m in product)
