"""Exact linear algebra over the rationals and integers.

Everything here is deterministic and exact: rank and kernels come from one
fraction-free integer Gauss-Jordan elimination (gcd-normalised rows,
first-nonzero pivoting), Hermite normal forms and lattice coordinates are
computed over Z, determinants via Bareiss.  No floating point and no
rational arithmetic anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, lcm

from .errors import ContainmentError, InvalidArgumentError


def _divide_content(vec):
    """vec divided by the gcd of its integer entries.

    The gcd is positive, so every sign is kept; vec itself comes back when
    its content is 0 or 1.  Shared by the elimination core, the hull simplex
    and the primitive edge directions.
    """
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


def _combine(pv, row, f, pivot_row):
    """The row update pv*row - f*pivot_row with its content divided out.

    Clears the pivot column when f is row's entry there and pv is
    pivot_row's; the result is row's direction scaled by pv / gcd.
    """
    return _divide_content([pv * a - f * b for a, b in zip(row, pivot_row)])


def _integer_row(row):
    """row itself when its entries are ints, else row scaled by the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return row
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(rows, ncols=None):
    """Integer Gauss-Jordan elimination.  Returns (rows, pivot column list).

    Each row stays a nonzero multiple of the corresponding row of the
    rational RREF: pivots are the first nonzero entry in row-major order, the
    pivot rows come first and are zero in every other pivot column, and the
    remaining rows are zero.  The input rows are never modified: every
    update builds a new row.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = [_integer_row(row) for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pivot_row = m[r]
        pv = pivot_row[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _combine(pv, m[i], f, pivot_row)
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows, ncols=None) -> int:
    """Exact rank over Q: the pivot count of the integer elimination."""
    return len(_eliminate(rows, ncols)[1])


def _primitive(vec):
    """Primitive integer vector with positive leading entry."""
    vec = _divide_content(vec)
    if next((x for x in vec if x), 0) < 0:
        return tuple(-x for x in vec)
    return tuple(vec)


def kernel_basis(rows, ncols) -> list:
    """Basis of the right null space of the matrix, one vector per free column.

    Each vector is normalized to primitive integer entries with positive
    leading entry, so kernels are stable golden-test values.
    """
    m, pivots = _eliminate(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        # x_fc = lcm of the pivots, x_pc = -m[r][fc] * lcm / pivot of row r
        scale = lcm(*[row[pc] for row, pc in zip(m, pivots) if row[fc]])
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(m, pivots):
            if row[fc]:
                v[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(v))
    return basis


def det_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
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


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a sublattice of Z^ambient, rows in Hermite normal form.

    The HNF encoding is unique for a given lattice, so equality of bases is
    equality of lattices.
    """

    ambient: int
    basis: tuple  # tuple of tuples, linearly independent over Q

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinates(self, vec):
        """Integer coordinates of vec in this basis, or None if vec is not in the lattice.

        The rows are echelon, so each coordinate is the residual's entry at
        the row's pivot divided exactly by the pivot; the first pivot that
        does not divide it, or a residual left over, means vec is outside.
        """
        residual = list(vec)
        coords = []
        for row in self.basis:
            pc = next(j for j, x in enumerate(row) if x != 0)
            c, rem = divmod(residual[pc], row[pc])
            if rem:
                return None
            coords.append(c)
            residual = [a - c * b for a, b in zip(residual, row)]
        if any(residual):
            return None
        return tuple(coords)

    def contains(self, vec) -> bool:
        return self.coordinates(vec) is not None


def hnf(vectors, ambient=None) -> LatticeBasis:
    """Hermite normal form basis of the Z-span of the given integer vectors.

    Row-style HNF: positive pivots strictly to the right as rows descend,
    entries above each pivot reduced into [0, pivot).
    """
    vectors = [tuple(v) for v in vectors]
    if ambient is None:
        if not vectors:
            raise InvalidArgumentError("ambient dimension required for empty input")
        ambient = len(vectors[0])
    if any(len(v) != ambient for v in vectors):
        raise InvalidArgumentError("inconsistent vector lengths")
    rows = [list(map(int, v)) for v in vectors if any(v)]
    r = 0
    for c in range(ambient):
        # eliminate column c below row r using gcd steps
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i_min] = rows[i_min], rows[r]
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(rows) and rows[r][c] != 0:
            # reduce entries above the pivot into [0, pivot)
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            r += 1
    rows = rows[:r]
    return LatticeBasis(ambient, tuple(tuple(row) for row in rows))


def lattice_index(sub: LatticeBasis, sup: LatticeBasis):
    """Index [sup : sub] as an integer, or inf when rank(sub) < rank(sup).

    Raises ContainmentError unless every basis vector of sub lies in sup.
    """
    if sub.ambient != sup.ambient:
        raise InvalidArgumentError("lattices live in different ambient spaces")
    coeffs = []
    for v in sub.basis:
        coords = sup.coordinates(v)
        if coords is None:
            raise ContainmentError(f"{v} is not in the super-lattice")
        coeffs.append(coords)
    if sub.dimension < sup.dimension:
        return inf
    return abs(det_bareiss(coeffs))
