"""Monomials as dense exponent vectors, monomial systems, parsing and canonicalization.

A monomial of degree d in variables x_0..x_n is a tuple of n+1 non-negative
integers summing to d, i.e. a lattice point of the dilated simplex d*Delta.
Tuples compare lexicographically, so every set of monomials has a unique
sorted encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidArgumentError, ParseError

# A monomial: tuple of n+1 non-negative ints summing to the degree.
Exponent = tuple


def lattice_points_simplex(n: int, d: int) -> list:
    """All C(n+d, d) exponent vectors of degree d in n+1 variables, sorted."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if d < 1:
        raise InvalidArgumentError(f"d must be >= 1, got {d}")
    return list(_compositions(d, n + 1))


def _compositions(total, parts):
    # yields in lexicographic order
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_str(mono: Exponent) -> str:
    """Render (2,1,0) as 'x0^2*x1'.  The zero exponent vector renders as '1'."""
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors) if factors else "1"


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(token: str, n: int, d: int, line: int | None = None) -> Exponent:
    """Parse a single token: either 'x0^2*x1' style or a raw tuple '(2,1,0)'."""
    token = token.strip()
    if token.startswith("("):
        if not token.endswith(")"):
            raise ParseError(f"unterminated tuple {token!r}", line)
        try:
            entries = tuple(int(p) for p in token[1:-1].split(","))
        except ValueError:
            raise ParseError(f"malformed tuple {token!r}", line) from None
        if len(entries) != n + 1:
            raise ParseError(
                f"tuple {token!r} has {len(entries)} entries, expected {n + 1}", line
            )
        if any(e < 0 for e in entries):
            raise ParseError(f"negative exponent in {token!r}", line)
        mono = entries
    else:
        exps = [0] * (n + 1)
        for factor in token.split("*"):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"malformed factor {factor!r} in {token!r}", line)
            idx = int(m.group(1))
            e = int(m.group(2)) if m.group(2) else 1
            if idx > n:
                raise ParseError(
                    f"variable x{idx} out of range (n={n}) in {token!r}", line
                )
            exps[idx] += e
        mono = tuple(exps)
    if sum(mono) != d:
        raise ParseError(f"monomial {token!r} has degree {sum(mono)}, expected {d}", line)
    return mono


@dataclass(frozen=True)
class MonomialSystem:
    """A pair (S, P): generators S of the artinian ideal and the apolar set P.

    generators and apolar are disjoint sorted tuples partitioning the lattice
    points of d*Delta.
    """

    n: int
    d: int
    generators: tuple
    apolar: tuple

    @classmethod
    def from_generators(cls, n, d, generators):
        return cls._build(n, d, generators, given="S")

    @classmethod
    def from_apolar(cls, n, d, apolar):
        return cls._build(n, d, apolar, given="P")

    @classmethod
    def _build(cls, n, d, given_set, given):
        given_set = _validated(n, d, given_set)
        all_points = set(lattice_points_simplex(n, d))
        extra = set(given_set) - all_points
        if extra:
            raise InvalidArgumentError(f"monomials outside {d}*Delta: {sorted(extra)}")
        complement = tuple(sorted(all_points - set(given_set)))
        if given == "S":
            return cls(n, d, given_set, complement)
        return cls(n, d, complement, given_set)

    @property
    def artinian(self) -> bool:
        """True iff all pure powers x_i^d are among the generators."""
        gens = set(self.generators)
        return all(_pure_power(i, self.n, self.d) in gens for i in range(self.n + 1))

    def encoding(self) -> tuple:
        return self.generators

    def permuted(self, perm) -> "MonomialSystem":
        """Apply a coordinate permutation: variable i is sent to position perm[i]."""
        gens = tuple(sorted(_apply_perm(m, perm) for m in self.generators))
        apolar = tuple(sorted(_apply_perm(m, perm) for m in self.apolar))
        return MonomialSystem(self.n, self.d, gens, apolar)


def _pure_power(i, n, d):
    v = [0] * (n + 1)
    v[i] = d
    return tuple(v)


def _apply_perm(mono, perm):
    out = [0] * len(mono)
    for i, e in enumerate(mono):
        out[perm[i]] = e
    return tuple(out)


def _validated(n, d, monos):
    seen = set()
    for m in monos:
        if len(m) != n + 1 or any(e < 0 for e in m) or sum(m) != d:
            raise InvalidArgumentError(f"invalid degree-{d} monomial {m} for n={n}")
        if m in seen:
            raise InvalidArgumentError(f"duplicate monomial {m}")
        seen.add(m)
    return tuple(sorted(monos))


def canonical_form(sys: MonomialSystem) -> MonomialSystem:
    """Lexicographically smallest encoding of sys over all coordinate permutations.

    Two systems are equivalent under relabelling of variables iff their
    canonical forms are equal.  A relabelling puts variable v_p at position
    p, sending m to (m[v_0], ..., m[v_n]).  The search fixes v_n, v_{n-1},
    ..., v_0 in turn and returns the least encoding over S_{n+1} without
    visiting all of it, resting on three facts.

    1. Block order.  Each monomial supported on positions {k..n} is smaller
       than each one with a nonzero exponent before k: up to the first
       nonzero exponent of the second, the first is zero too.  The former
       are exactly the monomials below e = (0, ..., 1 at k-1, ..., 0).  So
       once v_k..v_n are fixed, the image's members below e, those of the m
       supported on {v_k..v_n}, are fixed, and they are the start of the
       sorted image.
    2. Set comparison.  For |A| = |B|, sorted(A) < sorted(B) iff the least
       element x of A ^ B is in A: below x the two agree, and then A lists x
       while B lists something larger.  So the least encoding has the
       lexicographically largest membership vector over all monomials in
       ascending order, a 1 earlier being better, and by fact 1 the part
       below e is a prefix of that vector.  At each level only the partial
       assignments whose part wins can lead to the least encoding; ties are
       all kept.  Parts of different sizes compare the same way: a part that
       is a proper prefix of another loses to it, since the longer one has a
       1 where the shorter has a 0, which is the reverse of how Python
       compares the tuples.  So each sorted part ends in a sentinel above
       every monomial before the parts compare.
    3. Merging.  Represent a partial assignment by the relabelling that puts
       its free variables at positions 0..k-1 in increasing order.  Every
       completion is that relabelling followed by a permutation of positions
       0..k-1, so two partial assignments whose representatives give the
       same image set have the same completions' images, and one of them is
       enough.  Symmetric variables collapse this way: a fully symmetric S
       keeps one assignment per level.
    """
    n, gens = sys.n, sys.generators
    sentinel = (sys.d + 1,)  # above every monomial
    level = [()]  # tails (v_k, ..., v_n) still in the race
    for k in range(n, -1, -1):
        # e of fact 1: the image's members below it are fixed at this level
        bound = (0,) * (k - 1) + (1,) + (0,) * (n + 1 - k) if k else sentinel
        best, kept = None, {}
        for tail in level:
            for v in range(n + 1):
                if v in tail:
                    continue
                head = (v,) + tail
                order = (*[u for u in range(n + 1) if u not in head], *head)
                # tuple(list), not tuple(generator): the latter allocates spare
                # slots and shrinks, so freed tuples pile up in the free lists
                images = frozenset(tuple([m[u] for u in order]) for m in gens)
                part = sorted(t for t in images if t < bound)
                part.append(sentinel)
                if best is None or part < best:
                    best, kept = part, {}
                elif part > best:
                    continue
                kept.setdefault(images, head)
        level = list(kept.values())
    return MonomialSystem.from_generators(sys.n, sys.d, next(iter(kept)))


def parse_system(text: str, n: int, d: int) -> MonomialSystem:
    """Parse the text format: header 'S:' or 'P:' then monomial tokens.

    Tokens are whitespace separated; '#' starts a comment.  The set not given
    is filled in as the complement inside d*Delta.
    """
    header = None
    monos = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for token in re.findall(r"\([^()]*\)|\S+", line):
            if header is None:
                if token in ("S:", "P:"):
                    header = token[0]
                    continue
                raise ParseError(f"expected header 'S:' or 'P:', got {token!r}", lineno)
            mono = parse_monomial(token, n, d, lineno)
            if mono in seen:
                raise ParseError(
                    f"duplicate monomial {token!r} (first seen on line {seen[mono]})",
                    lineno,
                )
            seen[mono] = lineno
            monos.append(mono)
    if header is None:
        raise ParseError("missing header 'S:' or 'P:'", 1)
    if header == "S":
        return MonomialSystem.from_generators(n, d, monos)
    return MonomialSystem.from_apolar(n, d, monos)


def serialize(sys: MonomialSystem, which: str = "S") -> str:
    """Inverse of parse_system; lists either the generators or the apolar set."""
    if which not in ("S", "P"):
        raise InvalidArgumentError(f"which must be 'S' or 'P', got {which!r}")
    monos = sys.generators if which == "S" else sys.apolar
    return f"{which}: " + " ".join(monomial_str(m) for m in monos)


@dataclass(frozen=True)
class PartitionSpec:
    """A partition n+1 = a_1 + ... + a_s with n-1 >= a_1 >= ... >= a_s >= 1.

    Group lambda (0-based) owns the variable index range
    [sum of earlier parts, sum including this part).
    """

    parts: tuple
    n: int

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts or any(a < 1 for a in parts):
            raise InvalidArgumentError(f"parts must be positive, got {parts}")
        if list(parts) != sorted(parts, reverse=True):
            raise InvalidArgumentError(f"parts must be non-increasing, got {parts}")
        if sum(parts) != self.n + 1:
            raise InvalidArgumentError(
                f"parts sum to {sum(parts)}, expected n+1 = {self.n + 1}"
            )
        if parts[0] > self.n - 1:
            raise InvalidArgumentError(
                f"largest part {parts[0]} exceeds n-1 = {self.n - 1}"
            )

    @classmethod
    def from_parts(cls, parts):
        return cls(tuple(parts), sum(parts) - 1)

    def groups(self) -> list:
        """Variable index ranges, one per part, partitioning {0..n}."""
        out = []
        start = 0
        for a in self.parts:
            out.append(range(start, start + a))
            start += a
        return out

    def group_of(self, i: int) -> int:
        start = 0
        for g, a in enumerate(self.parts):
            start += a
            if i < start:
                return g
        raise InvalidArgumentError(f"index {i} out of range for n={self.n}")

