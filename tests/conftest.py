"""Shared fixtures: the named systems used across the suite."""

import random

import pytest

from togliatti import MonomialSystem, enumerate_minimal_smooth, lattice_points_simplex, parse_system
from togliatti.lefschetz import quadric_pairs

# The n=2 system S = (x0^3, x1^3, x2^3, x0*x1*x2): the unique minimal smooth
# class at n=2 and the classical WLP-failure example.
BRENNER_KAID_TEXT = "S: x0^3 x1^3 x2^3 x0*x1*x2"

# n=3 system with apolar set {x_i^2 x_j : {i,j} != {0,1}} + {x0 x1 x2, x0 x1 x3};
# matches the partition (2,1,1).
COUNTEREX3_TEXT = (
    "P: x0^2*x2 x0^2*x3 x1^2*x2 x1^2*x3 x2^2*x0 x2^2*x1 x2^2*x3 "
    "x3^2*x0 x3^2*x1 x3^2*x2 x0*x1*x2 x0*x1*x3"
)

# 15-monomial n=4 system: fails WLP, smooth, but not minimal.
P15_TEXT = (
    "P: x0^2*x1 x0*x1^2 x0*x1*x2 x0^2*x3 x0*x2*x3 x2^2*x3 x1*x2*x3 x1^2*x3 "
    "x0*x1*x3 x0^2*x4 x0*x1*x4 x1^2*x4 x0*x2*x4 x2^2*x4 x1*x2*x4"
)

# 12-monomial n=3 system: fails WLP but is only quasi-smooth (simple
# unimodular hull whose vertex semigroups are not free) and not minimal.
P12_TEXT = (
    "P: x0*x2*x3 x1*x2*x3 x0^2*x2 x0^2*x3 x0*x2^2 x0*x3^2 "
    "x1^2*x2 x1^2*x3 x1*x2^2 x1*x3^2 x2^2*x3 x2*x3^2"
)


@pytest.fixture
def brenner_kaid():
    return parse_system(BRENNER_KAID_TEXT, 2, 3)


@pytest.fixture
def counterex3():
    return parse_system(COUNTEREX3_TEXT, 3, 3)


@pytest.fixture
def p15():
    return parse_system(P15_TEXT, 4, 3)


@pytest.fixture
def p12():
    return parse_system(P12_TEXT, 3, 3)


@pytest.fixture(scope="session")
def minimal_smooth_n2_n3():
    """enumerate_minimal_smooth(n) for n = 2, 3, run once per test session
    for the tests that only read the classes."""
    return {n: enumerate_minimal_smooth(n) for n in (2, 3)}


def truncated_simplex_apolar(n):
    """P = {x_i^2 x_j : i != j}, the apolar set of the partition (1,...,1)."""
    points = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                v = [0] * (n + 1)
                v[i], v[j] = 2, 1
                points.append(tuple(v))
    return sorted(points)


def truncated_simplex_system(n):
    return MonomialSystem.from_apolar(n, 3, truncated_simplex_apolar(n))


def random_artinian_system(rng, n, max_s=None):
    """Random artinian cubic system: pure cubes plus a random set of extras."""
    points = lattice_points_simplex(n, 3)
    cubes = [m for m in points if max(m) == 3]
    pool = [m for m in points if max(m) < 3]
    cap = (max_s - len(cubes)) if max_s is not None else len(pool)
    k = rng.randint(0, max(cap, 0))
    extras = rng.sample(pool, k)
    return MonomialSystem.from_generators(n, 3, cubes + extras)


def seeded_rng(seed):
    return random.Random(seed)


def quadric_coeff(q, i, j):
    """Coefficient of x_i*x_j (x_i^2 when i == j) in the quadric q."""
    i, j = sorted((i, j))
    return q.coeff_vector()[quadric_pairs(len(q.diag)).index((i, j))]
