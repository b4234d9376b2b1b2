"""Exhaustive search for minimal smooth cubic systems and the full-report checker.

The search fixes the pure cubes inside S, iterates over subsets of the
remaining monomials up to the cardinality bound, filters by the quadric
criterion (dimension exactly one, unique quadric missing every generator
point), deduplicates by canonical form and finally certifies smoothness and
cross-validates the WLP failure through the multiplication map.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from . import graphs, lefschetz, polytope
from .errors import (
    BudgetExhaustedError,
    InternalError,
    InvalidArgumentError,
    PreconditionError,
    StructureFailureError,
)
from .family import equality_partitions, member_partition, valid_partitions
from .lefschetz import QuadricForm
from .monomials import (
    MonomialSystem,
    PartitionSpec,
    canonical_form,
    lattice_points_simplex,
    monomial_str,
)


@dataclass(frozen=True)
class TogliattiVerdict:
    fails_wlp: bool
    quadric_space_dim: int
    minimal: Optional[bool]
    witness_quadric: Optional[QuadricForm]
    laplace_delta: Optional[int]
    cardinality_ok: bool


@dataclass(frozen=True)
class ClassRecord:
    sys: MonomialSystem  # canonical representative
    partition: Optional[PartitionSpec]
    verdict: TogliattiVerdict
    smoothness: polytope.SmoothnessCertificate


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    classes: tuple
    stats: dict


@dataclass(frozen=True)
class SearchConfig:
    n: int
    max_s: Optional[int] = None  # default C(n+2, 3)
    budget: Optional[float] = None  # seconds; None = unlimited

    def effective_max_s(self) -> int:
        return self.max_s if self.max_s is not None else comb(self.n + 2, 3)


def enumerate_minimal_smooth(config: SearchConfig) -> ClassificationResult:
    """All minimal smooth cubic systems with |S| <= max_s, one canonical rep per class.

    Deterministic: candidates are visited in sorted subset order and classes
    are returned in canonical-encoding order.
    """
    n = config.n
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    max_s = config.effective_max_s()
    start = time.monotonic()

    all_points = lattice_points_simplex(n, 3)
    cubes = [m for m in all_points if max(m) == 3]
    pool = [m for m in all_points if max(m) < 3]
    max_extra = max_s - len(cubes)

    stats = {
        "candidates": 0,
        "quadric_filtered": 0,
        "minimality_filtered": 0,
        "duplicate_orbit": 0,
        "smoothness_filtered": 0,
    }
    survivors = {}
    rejected_orbits = set()  # canonical reps already found non-smooth
    for k in range(max_extra + 1):  # empty range when max_s < n+1
        for extras in itertools.combinations(pool, k):
            if config.budget is not None and time.monotonic() - start > config.budget:
                raise BudgetExhaustedError(
                    f"budget of {config.budget}s exhausted after "
                    f"{stats['candidates']} candidates",
                    partial=ClassificationResult(n, _finalize(survivors), stats),
                )
            stats["candidates"] += 1
            gens = cubes + list(extras)
            gen_set = set(gens)
            apolar = [m for m in all_points if m not in gen_set]
            space = lefschetz.quadric_space(apolar, n)
            if len(space) != 1:
                stats["quadric_filtered"] += 1
                continue
            quadric = space[0]
            if any(quadric.evaluate(p) == 0 for p in gens):
                stats["minimality_filtered"] += 1
                continue
            sys = MonomialSystem.from_generators(n, 3, gens)
            rep = canonical_form(sys)
            if rep.encoding() in survivors or rep.encoding() in rejected_orbits:
                stats["duplicate_orbit"] += 1
                continue
            cert = polytope.smoothness_check(rep.apolar)
            if not cert.smooth:
                stats["smoothness_filtered"] += 1
                rejected_orbits.add(rep.encoding())
                continue
            survivors[rep.encoding()] = _certify_class(rep, cert)
    return ClassificationResult(n, _finalize(survivors), stats)


def _finalize(survivors):
    return tuple(survivors[key] for key in sorted(survivors))


def _certify_class(rep: MonomialSystem, cert) -> ClassRecord:
    """Re-derive every verdict for an enumerated class and cross-validate."""
    wlp = lefschetz.fails_wlp_in_degree_dminus1(rep)
    minimality = lefschetz.is_minimal_togliatti(rep)
    if not wlp.fails or not minimality.minimal:
        raise InternalError(
            "search filters and direct verdicts disagree for "
            + " ".join(map(monomial_str, rep.generators))
        )
    verdict = TogliattiVerdict(
        fails_wlp=True,
        quadric_space_dim=1,
        minimal=True,
        witness_quadric=minimality.quadric,
        laplace_delta=lefschetz.laplace_delta(rep.apolar, rep.n),
        cardinality_ok=lefschetz.cardinality_ok(rep),
    )
    return ClassRecord(rep, member_partition(rep), verdict, cert)


# ---------------------------------------------------------------------------
# single-system report

def check_command(sys: MonomialSystem, verbose: bool = False) -> dict:
    """Full machine-readable report on one system, with consistency cross-checks."""
    n, d = sys.n, sys.d
    report = {
        "schema_version": 1,
        "n": n,
        "d": d,
        "generators": [monomial_str(m) for m in sys.generators],
        "generator_count": len(sys.generators),
        "apolar_count": len(sys.apolar),
        "artinian": sys.artinian,
        "cardinality_ok": lefschetz.cardinality_ok(sys),
    }
    if not sys.artinian:
        report["togliatti"] = False
        report["note"] = "system is not artinian; algebraic predicates skipped"
        return report

    wlp = lefschetz.fails_wlp_in_degree_dminus1(sys)
    report["fails_wlp"] = wlp.fails
    report["wlp_witness"] = (
        _poly_text(wlp.witness) if wlp.witness is not None else None
    )
    dependent = lefschetz.restricted_dependence(sys)
    report["restricted_dependence"] = dependent
    if wlp.fails != dependent:
        raise InternalError("WLP kernel and hyperplane-restriction verdicts disagree")

    quadric_dim = None
    if d == 3:
        space = lefschetz.quadric_space(sys.apolar, n)
        quadric_dim = len(space)
        report["quadric_space_dim"] = quadric_dim
        report["quadric_basis"] = [str(q) for q in space]
        if wlp.fails:
            minimality = lefschetz.is_minimal_togliatti(sys)
            report["minimal"] = minimality.minimal
            report["minimal_certificate"] = _minimality_text(minimality)
        else:
            report["minimal"] = None

    delta = None
    try:
        delta = lefschetz.laplace_delta(sys.apolar, n)
    except PreconditionError as exc:
        report["laplace_delta_note"] = str(exc)
    report["laplace_delta"] = delta

    # the three equivalent failure conditions must agree whenever applicable
    if report["cardinality_ok"]:
        if quadric_dim is not None and wlp.fails != (quadric_dim >= 1):
            raise InternalError("WLP and quadric-space verdicts disagree")
        if delta is not None and wlp.fails != (delta >= 1):
            raise InternalError("WLP and Laplace-equation verdicts disagree")

    report["togliatti"] = bool(wlp.fails and report["cardinality_ok"])

    if len(sys.apolar) >= 2:
        cert = polytope.smoothness_check(sys.apolar)
        report["smooth"] = cert.smooth
        report["polytope"] = _smoothness_summary(cert, verbose)
    else:
        report["smooth"] = None

    if d == 3:
        report["graphs"] = _graph_summary(sys, verbose)
        report["spans_full_lattice"] = polytope.spans_full_lattice(sys.apolar) if sys.apolar else None
        report["contains_all_simplex_vertices"] = (
            polytope.contains_all_simplex_vertices(sys.apolar) if sys.apolar else None
        )
    return report


def _poly_text(poly):
    terms = []
    for mono in sorted(poly):
        terms.append(f"{poly[mono]}*{monomial_str(mono)}")
    return " + ".join(terms)


def _minimality_text(minimality):
    if minimality.minimal:
        return {"unique_quadric": str(minimality.quadric)}
    point, quadric = minimality.violation
    return {
        "violating_point": monomial_str(point) if point is not None else None,
        "vanishing_quadric": str(quadric),
    }


def _smoothness_summary(cert, verbose):
    out = {
        "dim": cert.dim,
        "vertex_count": len(cert.model.vertices),
        "edge_count": len(cert.model.edges),
        "smooth": cert.smooth,
        "failure": None
        if cert.failure is None
        else {"vertex": monomial_str(cert.failure[0]), "reason": cert.failure[1]},
    }
    if verbose:
        out["vertices"] = [
            {"point": monomial_str(r.vertex), "coords": list(cert.model.coords[r.vertex]),
             "edges": r.edge_count, "det": r.determinant}
            for r in cert.records
        ]
    return out


def _graph_summary(sys, verbose):
    gp = graphs.build_gp(sys)
    symmetric = gp.is_symmetric()
    out = {
        "gp_edge_count": len(gp.edges),
        "gp_symmetric": symmetric,
    }
    if symmetric:
        comp = graphs.build_gp_complement(sys)
        out["gp_complement_edges"] = sorted(map(list, comp.edges))
        try:
            partition = graphs.extract_partition(sys)
        except (StructureFailureError, InvalidArgumentError) as exc:
            # incomplete components, or a component larger than n-1
            out["partition"] = None
            out["partition_failure"] = str(exc)
        else:
            out["partition"] = list(partition.parts)
            out["partition_matches_family"] = member_partition(sys) is not None
    if verbose:
        out["gp_adjacency"] = gp.adjacency_text()
    return out


# ---------------------------------------------------------------------------
# theorem verification

def verify_theorem(n: int, budget: Optional[float] = None, max_s: Optional[int] = None) -> dict:
    """Machine verification of the classification at a given n.

    Checks that the enumerated classes coincide with the partition family,
    that every class respects the generator-count bound C(n+1,3)+n+1, and
    that equality holds exactly for the predicted partitions.
    """
    report = {"schema_version": 1, "n": n, "status": "pass", "failures": []}
    try:
        result = enumerate_minimal_smooth(SearchConfig(n=n, budget=budget, max_s=max_s))
    except BudgetExhaustedError as exc:
        report["status"] = "inconclusive"
        report["failures"].append(str(exc))
        return report

    # each class knows the family member it is, if any
    found = {rec.partition for rec in result.classes}
    missing = [spec.parts for spec in valid_partitions(n) if spec not in found]
    extra = [
        [monomial_str(m) for m in rec.sys.generators]
        for rec in result.classes
        if rec.partition is None
    ]
    if missing:
        report["failures"].append({"missing_partitions": [list(p) for p in missing]})
    if extra:
        report["failures"].append({"unexpected_classes": extra})

    bound = comb(n + 1, 3) + n + 1
    report["bound"] = bound
    at_equality = []
    for rec in result.classes:
        size = len(rec.sys.generators)
        if size > bound:
            report["failures"].append(
                {"bound_violation": [monomial_str(m) for m in rec.sys.generators]}
            )
        if size == bound and rec.partition is not None:
            at_equality.append(rec.partition.parts)
    predicted = sorted(p.parts for p in equality_partitions(n))
    if sorted(at_equality) != predicted:
        report["failures"].append(
            {"equality_mismatch": {"found": sorted(map(list, at_equality)),
                                   "predicted": list(map(list, predicted))}}
        )

    report["classes"] = [
        {
            "generators": [monomial_str(m) for m in rec.sys.generators],
            "size": len(rec.sys.generators),
            "partition": list(rec.partition.parts) if rec.partition else None,
        }
        for rec in result.classes
    ]
    report["class_count"] = len(result.classes)
    report["stats"] = result.stats
    if report["failures"]:
        report["status"] = "fail"
    return report

