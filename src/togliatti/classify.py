"""Exhaustive search for minimal smooth cubic systems and the full-report checker.

The search is orbit-first.  It takes one digraph G_P per isomorphism class
(orderly generation), which fixes the mixed squares x_i^2 x_j of P; the pure
cubes always go to S.  A depth-first search then puts each squarefree
monomial into P or S, eliminating the quadric-evaluation rows of P
incrementally in exact integer arithmetic and cutting every branch that can
no longer meet the quadric criterion (quadric space of dimension exactly
one, unique quadric missing every generator) or the cardinality bound.  The
minimal leaves are deduplicated by canonical form; smoothness is decided on
the new orbits by polytope.is_smooth, a verdict without a certificate that
stops the hull walk at the first vertex breaking the vertex criterion; the
WLP failure of each class is cross-validated through the multiplication map.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from . import graphs, lefschetz, linalg, polytope
from .errors import (
    BudgetExhaustedError,
    InternalError,
    InvalidArgumentError,
    PreconditionError,
    StructureFailureError,
)
from .family import equality_partitions, generator_bound, member_partition, valid_partitions
from .monomials import (
    MonomialSystem,
    PartitionSpec,
    canonical_form,
    lattice_points_simplex,
    monomial_str,
)


@dataclass(frozen=True)
class ClassRecord:
    sys: MonomialSystem  # canonical representative
    partition: Optional[PartitionSpec]
    laplace_delta: int


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    classes: tuple
    stats: dict


def enumerate_minimal_smooth(n: int, budget: Optional[float] = None) -> ClassificationResult:
    """All minimal smooth cubic systems within the cardinality bound, one
    canonical rep per class; budget is in seconds, None for unlimited.

    With R_P the quadric-evaluation rows of the apolar set P and
    N = C(n+2,2), a system is minimal iff rank R_P = N - 1 and no generator
    row lies in the span of R_P (the unique quadric q vanishes at s iff
    row(s) . q = 0, iff row(s) is in the span).  The pure cubes go to S.

    Symmetry: relabelling the variables by sigma keeps a system minimal,
    smooth and within the bound, and G_{sigma P} = sigma(G_P), where G_P
    has the arc (i, j) iff x_i^2 x_j is in P.  So every orbit has a member
    whose G_P is a canonical digraph (_canonical_digraphs), and the search
    takes those only, which fixes the mixed squares.  G_P up to relabelling
    is an orbit invariant: leaves under two digraphs are never in one orbit.

    Under each digraph a DFS puts the squarefree points into P or S in
    turn, keeping every other point's row reduced modulo the span of the P
    rows (_reduce).  P only grows along a branch, and so does the span;
    hence no prune cuts a minimal system:
    - a point already in the span is forced into P (in S it would stay in
      the span);
    - a branch ends when a generator enters the span (it stays there), when
      the rank reaches N (it stays N), when the rank can no longer reach
      N - 1 (each undecided point adds at most one), or when |S| exceeds
      lefschetz.cardinality_bound (S only grows).
    A leaf has no generator in the span, so it is minimal iff its rank is
    N - 1.  Minimal leaves are deduplicated by canonical_form, new orbits
    go through polytope.is_smooth (smoothness_check's verdict, decided at
    the first vertex that breaks the vertex criterion) and the smooth ones
    are certified.

    stats:
    - digraphs: canonical digraphs searched (one whose S already holds
      more than the bound is skipped); nodes: DFS nodes entered;
    - candidates: branches that end at a quadric verdict, the sum of the
      next two counters and the minimal leaves;
    - quadric_filtered: branches where the rank reached N or could no
      longer reach N - 1, and leaves of rank below N - 1;
    - minimality_filtered: branches cut by a generator entering the span,
      where the quadric would vanish;
    - duplicate_orbit: minimal leaves of an orbit already found;
    - smoothness_filtered: minimal orbits that are not smooth.

    When the budget runs out, BudgetExhaustedError carries the classes and
    counters so far and the digraphs done out of the total (None while the
    digraphs are being generated).  Digraphs and DFS run in a fixed order;
    classes come in canonical-encoding order.
    """
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    deadline = None if budget is None else time.monotonic() + budget
    stats = dict.fromkeys(
        ("candidates", "quadric_filtered", "minimality_filtered", "duplicate_orbit",
         "smoothness_filtered", "digraphs", "nodes"),
        0,
    )
    survivors = {}

    def exhausted(total):
        return BudgetExhaustedError(
            f"budget of {budget}s exhausted after {stats['digraphs']} of "
            f"{'?' if total is None else total} digraphs",
            partial=ClassificationResult(n, _finalize(survivors), dict(stats)),
            progress={"digraphs_done": stats["digraphs"], "digraphs_total": total},
        )

    n1 = n + 1
    digraphs = _canonical_digraphs(n1, deadline)
    if digraphs is None:
        raise exhausted(None)

    points = lattice_points_simplex(n, 3)
    rows = {p: linalg._primitive(lefschetz.quadric_evaluation_row(p)) for p in points}
    cubes = [p for p in points if max(p) == 3]
    mixed = [p for p in points if max(p) == 2]
    squarefree = [p for p in points if max(p) == 1]
    bound = lefschetz.cardinality_bound(n, 3)
    rejected = set()  # canonical encodings of the minimal orbits that are not smooth
    # A digraph's residuals are its parent's with one more mixed square in
    # the span, and in preorder the parent is the last digraph one arc shorter:
    # levels[a] = (N - rank of its P rows, residual of each point outside its
    # P) for the last digraph with a arcs.
    levels = [(len(lefschetz.quadric_pairs(n1)), rows)]
    for graph in digraphs:
        if deadline is not None and time.monotonic() > deadline:
            raise exhausted(len(digraphs))
        if graph:
            k, residual = levels[len(graph) - 1]
            square = graphs._mixed_square(*graph[-1], n1)
            k -= any(residual[square])
            residual = _add_to_span(residual, square)
            levels[len(graph):] = [(k, residual)]
        else:
            k, residual = levels[0]
        stats["digraphs"] += 1
        mixed_s = list(filter(residual.__contains__, mixed))  # the P ones have left it
        if len(cubes) + len(mixed_s) > bound:
            continue
        for extra in _squarefree_leaves(k, residual, cubes + mixed_s, squarefree, bound, stats):
            apolar = [graphs._mixed_square(i, j, n1) for i, j in graph] + list(extra)
            rep = canonical_form(MonomialSystem.from_apolar(n, 3, apolar))
            key = rep.encoding()
            if key in survivors or key in rejected:
                stats["duplicate_orbit"] += 1
                continue
            if not polytope.is_smooth(rep.apolar):
                stats["smoothness_filtered"] += 1
                rejected.add(key)
                continue
            survivors[key] = _certify_class(rep)
    return ClassificationResult(n, _finalize(survivors), stats)


def _canonical_digraphs(n1: int, deadline: Optional[float]) -> Optional[list]:
    """One digraph per S_{n1} orbit, as the sorted tuple of its arcs (i, j);
    None once the deadline passes.

    A digraph is canonical when its sorted arc tuple is lexicographically
    smallest among its relabellings.  With the arcs indexed in lex order,
    that is, among sets of one size, the one whose mask, with arc 0 the
    most significant bit, is largest.  Dropping the largest arc of a
    canonical digraph leaves a canonical one: if a relabelling made the
    shorter tuple smaller, it would make the full tuple smaller too, since
    adding an arc to a set lowers no entry of its sorted tuple.  So
    extending canonical digraphs by an arc above all of theirs and keeping
    the canonical extensions reaches each canonical digraph exactly once
    (orderly generation).  Each digraph carries its mask under every
    relabelling, so testing an extension costs one addition per
    relabelling.  The list is in preorder: a digraph's parent, the digraph
    without its largest arc, comes before it.
    """
    arcs = [(i, j) for i in range(n1) for j in range(n1) if i != j]
    top = len(arcs) - 1
    index = {arc: a for a, arc in enumerate(arcs)}
    perms = list(itertools.permutations(range(n1)))  # perms[0] is the identity
    # bit[a][k]: the bit of arc a under the k-th relabelling
    bit = [[1 << (top - index[p[i], p[j]]) for p in perms] for i, j in arcs]
    found = []
    for graph in _orderly_extensions((), [0] * len(perms), bit):
        if deadline is not None and time.monotonic() > deadline:
            return None
        found.append(tuple(map(arcs.__getitem__, graph)))
    return found


def _orderly_extensions(graph, images, bit):
    """graph, then in preorder its canonical extensions by arcs above its
    own; images holds graph's mask under each relabelling, its own first."""
    yield graph
    for a in range(graph[-1] + 1 if graph else 0, len(bit)):
        child = [x + y for x, y in zip(images, bit[a])]
        if max(child) == child[0]:
            yield from _orderly_extensions(graph + (a,), child, bit)


def _reduce(vectors, e):
    """Yield each primitive vector modulo the span grown by the nonzero
    residual e: e's first nonzero column is eliminated from it and the
    result made primitive (linalg._primitive).  A vector that is zero in
    that column is already reduced and comes back as it is."""
    pv = next(filter(None, e))
    j = e.index(pv)
    for v in vectors:
        f = v[j]
        yield linalg._primitive([pv * a - f * b for a, b in zip(v, e)]) if f else v


def _add_to_span(residual: dict, point) -> dict:
    """The residual of every other point once point's row joins the span."""
    residual = dict(residual)
    e = residual.pop(point)
    if any(e):
        residual = dict(zip(residual, _reduce(residual.values(), e)))
    return residual


def _squarefree_leaves(k, residual: dict, generators, squarefree, bound, stats) -> list:
    """The minimal completions of one digraph: tuples of the squarefree
    points that join P.

    k is N minus the rank of the digraph's P rows, the dimension of its
    quadric space.  residual holds each point outside P modulo the span of
    those rows, as a primitive vector; generators are the points already in
    S.  Adding a point with residual e to the span brings a generator in
    exactly when the generator's residual is a multiple of e, that is equal
    to e, since both are primitive with a positive leading entry.  The
    prunes and the counters are enumerate_minimal_smooth's.
    """
    leaves = []
    gens = set(map(residual.get, generators))
    if k == 0 or not all(map(any, gens)):
        stats["candidates"] += 1
        stats["quadric_filtered" if k == 0 else "minimality_filtered"] += 1
        return leaves
    # a node: (k, the generators' residuals, the residuals of the undecided
    # points, the last len(free) of squarefree, |S|, the squarefree points in P)
    stack = [(k, gens, list(map(residual.get, squarefree)), len(generators), ())]
    while stack:
        k, gens, free, size, chosen = stack.pop()
        stats["nodes"] += 1
        ended = None
        if k - 1 > len(free):
            ended = "quadric_filtered"
        elif not free:
            leaves.append(chosen)
        else:
            point, e, rest = squarefree[-len(free)], free[0], free[1:]
            if not any(e):  # forced: in the span already
                stack.append((k, gens, rest, size, chosen + (point,)))
                continue
            if size < bound:
                stack.append((k, gens | {e}, rest, size + 1, chosen))
            if k == 1:  # the rank would reach N
                ended = "quadric_filtered"
            elif e in gens:
                ended = "minimality_filtered"
            else:
                stack.append((k - 1, set(_reduce(gens, e)), list(_reduce(rest, e)),
                              size, chosen + (point,)))
                continue
        stats["candidates"] += 1
        if ended:
            stats[ended] += 1
    return leaves


def _finalize(survivors):
    return tuple(survivors[key] for key in sorted(survivors))


def _certify_class(rep: MonomialSystem) -> ClassRecord:
    """Re-derive every verdict for an enumerated class and cross-validate."""
    wlp = lefschetz.fails_wlp_in_degree_dminus1(rep)
    minimality = lefschetz.is_minimal_togliatti(rep)
    if not wlp.fails or not minimality.minimal:
        raise InternalError(
            "search filters and direct verdicts disagree for "
            + " ".join(map(monomial_str, rep.generators))
        )
    delta = lefschetz.laplace_delta(rep.apolar, rep.n)
    return ClassRecord(rep, member_partition(rep), delta)


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
        "violating_point": monomial_str(point),
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
        adj = gp.complement_neighbours()
        out["gp_complement_edges"] = [[i, j] for i in sorted(adj) for j in sorted(adj[i]) if i < j]
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

def class_summary(rec: ClassRecord) -> dict:
    """The generators, size and family partition of one enumerated class."""
    return {
        "generators": [monomial_str(m) for m in rec.sys.generators],
        "size": len(rec.sys.generators),
        "partition": list(rec.partition.parts) if rec.partition else None,
    }


def budget_progress(exc: BudgetExhaustedError) -> dict:
    """How far a search got before its budget ran out: the classes found so
    far, the counters, and the digraphs done out of the total."""
    return {
        "classes_found_so_far": len(exc.partial.classes),
        "stats": exc.partial.stats,
        **exc.progress,
    }


def verify_theorem(n: int, budget: Optional[float] = None) -> dict:
    """Machine verification of the classification at a given n.

    Checks that the enumerated classes coincide with the partition family,
    that every class respects the generator-count bound C(n+1,3)+n+1, and
    that equality holds exactly for the predicted partitions.
    """
    report = {"schema_version": 1, "n": n, "status": "pass", "failures": []}
    try:
        result = enumerate_minimal_smooth(n, budget)
    except BudgetExhaustedError as exc:
        report["status"] = "inconclusive"
        report["failures"].append(str(exc))
        report.update(budget_progress(exc))
        return report

    # each class knows the family member it is, if any
    classes = [class_summary(rec) for rec in result.classes]
    found = [c["partition"] for c in classes]
    missing = [list(p.parts) for p in valid_partitions(n) if list(p.parts) not in found]
    extra = [c["generators"] for c in classes if c["partition"] is None]
    if missing:
        report["failures"].append({"missing_partitions": missing})
    if extra:
        report["failures"].append({"unexpected_classes": extra})

    bound = generator_bound(n)
    report["bound"] = bound
    for c in classes:
        if c["size"] > bound:
            report["failures"].append({"bound_violation": c["generators"]})
    at_equality = sorted(
        c["partition"] for c in classes if c["size"] == bound and c["partition"] is not None
    )
    predicted = sorted(list(p.parts) for p in equality_partitions(n))
    if at_equality != predicted:
        report["failures"].append(
            {"equality_mismatch": {"found": at_equality, "predicted": predicted}}
        )

    report["classes"] = classes
    report["class_count"] = len(result.classes)
    report["stats"] = result.stats
    if report["failures"]:
        report["status"] = "fail"
    return report

