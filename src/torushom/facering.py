"""Additive structure of the face ring modulo a linear system of parameters.

The degree-q generators are the faces of corank q, with stalk orientations
trivialized by the structure sheaf; relations come in two kinds.  The
first kind pairs every face one rank down with a subset of torus
coordinates through incidence signs and determinant coefficients; the
second kind pairs cocycle representatives of the connecting images with
the same coefficients.  The coefficients are the signed coordinates of
each face's top form, read from the job's sheaf kit of the map
(`TorusSheafKit.coefficient`), the same forms that generate the
principal-ideal cosheaf.  All outputs are ranks and explicit kernel
vectors, never ring elements: the ring structure itself is out of scope.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .exactlin import Matrix, IncrementalSpan
from .errors import InputError
from .poset import SimplicialPoset, incidence_number
from .sheaves import CellularSheaf, sheaf_cohomology
from .specseq import ManifoldProfile, validate_profile
from .torusalg import CharacteristicMap, TorusSheafKit


class RelationSystem:
    """The generators of a face ring and its relation rows, filled in by
    `relation_system`: first the first kind, then the second kind when the
    profile determines it."""

    def __init__(self, field, n: int, kit: TorusSheafKit, generators: dict):
        self.field = field
        self.n = n
        self.kit = kit                  # the map's sheaf kit: the determinant coefficients
        self.generators = generators    # q -> list of generator labels
        self._index = {q: {g: k for k, g in enumerate(gs)} for q, gs in generators.items()}
        self.type1 = {}                 # q -> list of rows (vectors over the generators)
        self.type2 = None               # q -> list of (class_index, A, row); None if unavailable
        self.type2_cocycles = {}        # q -> representative cocycles
        # cohomology of the trivialized structure sheaf (constant values),
        # with its cochain complex; built with the second kind
        self.trivialized = None
        self.type2_reason = ""

    def generator_count(self, q):
        return len(self.generators.get(q, []))

    def generator_index(self, q):
        return self._index[q]

    def type1_rows(self, q):
        return self.type1.get(q, [])

    def type2_rows(self, q):
        if self.type2 is None:
            raise InputError("second-kind relations unavailable: " + self.type2_reason)
        return [row for (_, _, row) in self.type2.get(q, [])]

    def row_from_cocycle(self, q, z, A, elems):
        """Relation row attached to a degree-q cocycle and a subset A."""
        field = self.field
        gi = self.generator_index(q)
        row = [field.zero] * self.generator_count(q)
        for k, e in enumerate(elems):
            if z[k]:
                row[gi[("f", e)]] = field(z[k] * self.kit.coefficient(e, A))
        return row


def relation_system(S: SimplicialPoset, cmap: CharacteristicMap, field,
                    profile: ManifoldProfile | None = None) -> RelationSystem:
    """Assemble generators and both relation matrices.

    Requires an orientable homology manifold over the active field and a
    characteristic map of rank equal to the poset rank.  Second-kind rows
    need the cone profile: a user profile does not determine which classes
    the connecting maps hit, so for user profiles only the first kind is
    built and the second is marked unavailable.  An invalid profile raises.
    """
    n = S.n
    job = S.job(field)
    if profile is None:
        profile = job.cone_profile
    diag = validate_profile(S, profile, field)
    if not diag.ok:
        raise InputError("invalid profile: " + "; ".join(diag.messages))
    if cmap.n != n:
        raise InputError("face ring needs torus rank equal to the poset rank")
    if not job.classify.buchsbaum:
        raise InputError("poset is not Buchsbaum over the active field")
    kit = job.kit(cmap)             # refuses a map that is invalid over the field
    structure = job.structure_sheaf()
    cons = job.constancy
    if not cons.is_constant:
        raise InputError("structure sheaf is not constant: " + (cons.witness or ""))
    orientation = dict(cons.orientation)

    subsets = {q: [tuple(c) for c in combinations(range(1, n + 1), q)]
               for q in range(n + 1)}
    generators = {}
    for q in range(n + 1):
        if q < n:
            generators[q] = [("f", e) for e in S.elements_of_rank(n - q)]
        else:
            generators[q] = [("e", m) for m in range(structure.stalk_dims[0])]

    system = RelationSystem(field, n, kit, generators)

    type1 = {q: [] for q in range(n + 1)}
    for q in range(n):
        gi = system.generator_index(q)
        width = len(generators[q])
        for j in S.elements_of_rank(n - q - 1):
            if j == 0:
                for m in range(structure.stalk_dims[0]):
                    for A in subsets[q]:
                        row = [field.zero] * width
                        for v in S.covered_by[0]:
                            c = structure.rest[(0, v)].rows[0][m]
                            cai = kit.coefficient(v, A)
                            row[gi[("f", v)]] = field(c * field.inv(orientation[v]) * cai)
                        type1[q].append(row)
            else:
                for A in subsets[q]:
                    row = [field.zero] * width
                    for i in S.covered_by[j]:
                        sign = incidence_number(S, i, j)
                        row[gi[("f", i)]] = field(sign * kit.coefficient(i, A))
                    type1[q].append(row)
    system.type1 = type1

    if profile.source != "cone":
        system.type2_reason = ("second-kind rows are determined by the cone "
                               "profile only")
        return system

    cohomology = system.trivialized = sheaf_cohomology(CellularSheaf.constant(S, field))
    labels = cohomology.complex.labels
    type2 = {}
    cocycles_kept = {}
    for q in range(max(n - 1, 0)):
        degree = n - 1 - q
        if q == 0:
            # the cocycles that pair to zero with the point classes, kept
            # where they enlarge the span of the coboundaries.  No
            # differential leaves the top degree of the truncated complex,
            # so its cocycles are the unit cochains, and those pairing to
            # zero are the kernel of the orientation row
            top = labels[degree]
            span = IncrementalSpan(field, len(top))
            for b in cohomology.boundaries(degree):
                span.add(b)
            pairing = Matrix(field, [[field(orientation[e]) for e in top]], len(top))
            reps = [z for z in pairing.kernel_basis() if span.add(z)]
        else:
            reps = cohomology.representatives(degree)
        expected = profile.rank_delta[q]
        if len(reps) != expected:
            raise InputError(f"degree {q}: found {len(reps)} connecting classes, "
                             f"profile says {expected}")
        if not reps:
            continue
        elems = labels[degree]
        rows = []
        for ci, z in enumerate(reps):
            for A in subsets[q]:
                rows.append((ci, A, system.row_from_cocycle(q, z, A, elems)))
        type2[q] = rows
        cocycles_kept[q] = reps
    system.type2 = type2
    system.type2_cocycles = cocycles_kept
    return system


def graded_quotient_rank(R: RelationSystem, include_type2: bool) -> dict:
    """Generator count modulo the relation rows, per degree."""
    out = {}
    for q in range(R.n + 1):
        rows = list(R.type1_rows(q))
        if include_type2:
            if R.type2 is None:
                raise InputError("second-kind relations unavailable: " + R.type2_reason)
            rows += R.type2_rows(q)
        count = R.generator_count(q)
        rank = Matrix(R.field, rows, count).rank() if rows else 0
        out[q] = count - rank
    return out


class KernelGenerators(NamedTuple):
    per_degree: dict           # q -> list of (class_index, A, residual vector)
    independent: bool
    representative_stable: bool

    def count(self):
        return sum(len(v) for v in self.per_degree.values())

    def as_dict(self):
        return {"count": self.count(), "independent": self.independent,
                "representative_stable": self.representative_stable,
                "per_degree": {str(q): [[ci, list(A), [str(v) for v in row]]
                                        for ci, A, row in rows]
                               for q, rows in sorted(self.per_degree.items())}}


def kernel_generators(R: RelationSystem) -> KernelGenerators:
    """Second-kind rows expressed in the first-kind quotient.

    Each row is reduced against the span of the first-kind rows; the
    reduced vector is supported on the quotient basis (the non-pivot
    generators).  Verifies that perturbing every representing cocycle by
    every coboundary generator leaves the reduced vectors exactly
    unchanged, and that the whole family is linearly independent.
    """
    if R.type2 is None:
        raise InputError("second-kind relations unavailable: " + R.type2_reason)
    field = R.field
    cohomology = R.trivialized
    per_degree = {}
    independent = True
    stable = True
    all_residuals_rank = 0
    total = 0
    for q, rows in sorted(R.type2.items()):
        width = R.generator_count(q)
        t1span = IncrementalSpan(field, width)
        for r in R.type1_rows(q):
            t1span.add(r)
        reduced = [(ci, A, t1span.reduce(row)) for ci, A, row in rows]
        per_degree[q] = reduced
        stack = Matrix(field, [r for (_, _, r) in reduced], width)
        rk = stack.rank()
        all_residuals_rank += rk
        total += len(reduced)
        if rk != len(reduced):
            independent = False
        degree = R.n - 1 - q
        elems = cohomology.complex.labels[degree]
        cbs = cohomology.boundaries(degree)
        subsets = sorted({A for (_, A, _) in rows})
        for ci, z in enumerate(R.type2_cocycles.get(q, [])):
            for cb in cbs:
                zp = [field(a + b) for a, b in zip(z, cb)]
                for A in subsets:
                    rowp = R.row_from_cocycle(q, zp, A, elems)
                    base = next(r for (c2, A2, r) in reduced
                                if c2 == ci and A2 == A)
                    if t1span.reduce(rowp) != base:
                        stable = False
    return KernelGenerators(per_degree, independent and all_residuals_rank == total,
                            stable)
