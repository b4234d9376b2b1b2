"""The classified family of cubic systems indexed by partitions of n+1.

For a partition n+1 = a_1 + ... + a_s (with a_1 <= n-1) the generators are
all cubics supported inside a single variable group plus all squarefree
cubics meeting every group in at most one variable; the apolar set is the
complement.  Each such system comes with an explicit witness quadric with
coefficient pattern 2 on squares, 4 on within-group cross terms and -5 on
cross-group terms.  Membership of an arbitrary system in the family, up to
relabelling the variables, is decided by one witness permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

from . import graphs
from .errors import InvalidArgumentError
from .lefschetz import QuadricForm
from .monomials import MonomialSystem, PartitionSpec, lattice_points_simplex


@dataclass(frozen=True)
class FamilySystem:
    spec: PartitionSpec
    sys: MonomialSystem
    mu: int
    beta: int
    witness_quadric: QuadricForm


def mu_formula(spec: PartitionSpec) -> int:
    """Number of generators: sum of C(a_i + 2, 3) plus the triple products."""
    parts = spec.parts
    total = sum(comb(a + 2, 3) for a in parts)
    total += sum(
        parts[i] * parts[j] * parts[h]
        for i, j, h in itertools.combinations(range(len(parts)), 3)
    )
    return total


def family_system(spec: PartitionSpec) -> FamilySystem:
    """Construct the system for a partition and cross-check the generator count."""
    n = spec.n
    group_of = [spec.group_of(i) for i in range(n + 1)]
    generators = []
    for mono in lattice_points_simplex(n, 3):
        support = [i for i, e in enumerate(mono) if e > 0]
        groups = [group_of[i] for i in support]
        if len(set(groups)) == 1:
            generators.append(mono)  # cubic inside a single group
        elif len(support) == 3 and len(set(groups)) == 3:
            generators.append(mono)  # squarefree, one variable per group
    sys = MonomialSystem.from_generators(n, 3, generators)
    mu = mu_formula(spec)
    if len(sys.generators) != mu:
        raise InvalidArgumentError(
            f"generator count {len(sys.generators)} disagrees with formula value {mu}"
        )
    beta = comb(n + 3, 3) - mu
    return FamilySystem(spec, sys, mu, beta, witness_quadric(spec))


def member_partition(sys: MonomialSystem) -> Optional[PartitionSpec]:
    """The partition whose family system sys is, up to relabelling the variables.

    In a family system x_i^2 x_j lies in P exactly when i and j are in
    different groups, so the components of the G_P complement are the
    groups.  The witness permutation sends the components onto the family's
    groups in decreasing size; any two such maps differ by a permutation
    that preserves the groups and so fixes the family system.  Hence sys is
    a member iff the witness carries its generators onto the family's:
    exact, and linear in |S| after the graph.  None when sys is no member.
    """
    if sys.d != 3 or not graphs.check_symmetry(sys):
        return None
    _, components = graphs._complement_components(sys)
    components.sort(key=len, reverse=True)
    try:
        spec = PartitionSpec(tuple(map(len, components)), sys.n)
    except InvalidArgumentError:  # a component with more than n-1 variables
        return None
    perm = [0] * (sys.n + 1)
    for comp, group in zip(components, spec.groups()):
        for i, target in zip(comp, group):
            perm[i] = target
    if sys.permuted(perm).generators == family_system(spec).sys.generators:
        return spec
    return None


def witness_quadric(spec: PartitionSpec) -> QuadricForm:
    """The explicit quadric through the apolar points and through no generator point."""
    n = spec.n
    group_of = [spec.group_of(i) for i in range(n + 1)]
    diag = tuple([2] * (n + 1))
    cross = tuple(
        4 if group_of[i] == group_of[j] else -5
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    )
    return QuadricForm(diag, cross)


def valid_partitions(n: int) -> list:
    """All partitions of n+1 with largest part at most n-1, lex-descending order."""
    if n < 2:
        return []
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(PartitionSpec(tuple(prefix), n))
            return
        for a in range(min(remaining, max_part), 0, -1):
            rec(remaining - a, a, prefix + [a])

    rec(n + 1, n - 1, [])
    return out


def equality_partitions(n: int) -> list:
    """Partitions attaining the maximal generator count C(n+1,3) + n + 1."""
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    bound = comb(n + 1, 3) + n + 1
    return [p for p in valid_partitions(n) if mu_formula(p) == bound]
