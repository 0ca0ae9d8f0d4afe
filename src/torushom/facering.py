"""Additive structure of the face ring modulo a linear system of parameters.

The degree-q generators are the faces of corank q, with stalk orientations
trivialized by the structure sheaf; relations come in two kinds.  The
first kind pairs every face one rank down with a subset of torus
coordinates through incidence signs and determinant coefficients; the
second kind pairs cocycle representatives of the connecting images with
the same coefficients.  The coefficients are the signed coordinates of
each face's top form, one `{A: C_{A,I}}` table per face, read from the
job's sheaf kit of the map (`TorusSheafKit.coefficients`), the same forms
that generate the principal-ideal cosheaf.  A relation row is a sparse
`{generator index: entry}` dict, built from those tables.  The first-kind
rows of each degree are eliminated once, into an `Echelon` kept in the
`RelationSystem`, and the second-kind rows are reduced by it there; the
quotient ranks and the kernel generators read those residuals.  All
outputs are ranks and explicit kernel vectors, never ring elements: the
ring structure itself is out of scope.
"""
from __future__ import annotations

from typing import NamedTuple

from .exactlin import Echelon, Matrix
from .errors import InputError
from .poset import SimplicialPoset, incidence_number
from .sheaves import CellularSheaf, sheaf_cohomology
from .specseq import ManifoldProfile, validate_profile
from .torusalg import CharacteristicMap


class RelationSystem(NamedTuple):
    """The generators of a face ring and its relation rows per degree q, each
    row a `{generator index: entry}` dict of nonzero entries: first the
    first kind, then the second kind when the profile determines it."""
    field: object
    n: int
    coefficients: dict          # face -> its determinant coefficients, from the kit
    generators: dict            # q -> list of generator labels
    type1: dict                 # q -> list of rows
    first_kind: dict            # q -> the `Echelon` of its first-kind rows
    type2: dict | None          # q -> list of (class_index, A, row); None if unavailable
    type2_cocycles: dict        # q -> the representative cocycles of the second kind
    type2_reduced: dict         # q -> its second-kind rows reduced by the first kind
    trivialized: object         # cohomology of the trivialized structure sheaf
                                # (constant values) with its cochain complex, or None
    type2_reason: str           # why the second kind is unavailable


def _row(coefficients, index, faces, values, A, p) -> dict:
    """The relation row of sum c C_{A,I} e_I over the faces I with their values
    c, as {generator index: entry}; `index` places each face."""
    row = {}
    for face, c in zip(faces, values):
        if c:
            x = coefficients[face].get(A)
            if x:
                row[index[face]] = c * x % p if p else c * x
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
    orientation, p = cons.orientation, field.char
    coefficients = {e: kit.coefficients(e) for e in range(1, S.size)}

    subsets = {q: kit.ext.subsets(q) for q in range(n + 1)}
    faces = {q: S.elements_of_rank(n - q) for q in range(n)}
    index = {q: {e: k for k, e in enumerate(fs)} for q, fs in faces.items()}
    generators = {q: [("f", e) for e in fs] for q, fs in faces.items()}
    generators[n] = [("e", m) for m in range(structure.stalk_dims[0])]

    type1 = {n: []}                 # no face lies one rank below the empty face
    for q in range(n):
        # per face j one rank down, its cofaces with their values
        if q == n - 1:
            # the empty face, once per coordinate m of its stalk
            vertices = S.covered_by[0]
            rest = [structure.rest[(0, v)].nonzeros()[0] for v in vertices]
            lower = [(vertices, [field(r.get(m, 0) * field.inv(orientation[v]))
                                 for v, r in zip(vertices, rest)])
                     for m in range(structure.stalk_dims[0])]
        else:
            lower = [(S.covered_by[j], [incidence_number(S, i, j) for i in S.covered_by[j]])
                     for j in S.elements_of_rank(n - q - 1)]
        type1[q] = [_row(coefficients, index[q], above, values, A, p)
                    for above, values in lower for A in subsets[q]]
    first_kind = {q: Echelon(field, rows) for q, rows in type1.items()}

    if profile.source != "cone":
        return RelationSystem(field, n, coefficients, generators, type1, first_kind, None, {}, {},
                              None, "second-kind rows are determined by the cone profile only")

    cohomology = sheaf_cohomology(CellularSheaf.constant(S, field))
    labels = cohomology.complex.labels
    type2, cocycles = {}, {}
    for q in range(max(n - 1, 0)):
        degree = n - 1 - q
        if q == 0:
            # the cocycles that pair to zero with the point classes, kept
            # where they enlarge the span of the coboundaries.  No
            # differential leaves the top degree of the truncated complex,
            # so its cocycles are the unit cochains, and those pairing to
            # zero are the kernel of the orientation row
            top = labels[degree]
            pairing = Matrix(field, [[field(orientation[e]) for e in top]], len(top))
            reps = cohomology.classes(degree, pairing.kernel_basis())[1]
        else:
            reps = cohomology.representatives(degree)
        expected = profile.rank_delta[q]
        if len(reps) != expected:
            raise InputError(f"degree {q}: found {len(reps)} connecting classes, "
                             f"profile says {expected}")
        if reps:
            type2[q] = [(ci, A, _row(coefficients, index[q], labels[degree], z, A, p))
                        for ci, z in enumerate(reps) for A in subsets[q]]
            cocycles[q] = reps
    reduced = {q: [first_kind[q].reduce(row) for _, _, row in rows] for q, rows in type2.items()}
    return RelationSystem(field, n, coefficients, generators, type1, first_kind, type2,
                          cocycles, reduced, cohomology, "")


def _second_kind(R: RelationSystem) -> dict:
    """The second-kind rows reduced by the first kind; refuses a system
    whose profile leaves them open."""
    if R.type2 is None:
        raise InputError("second-kind relations unavailable: " + R.type2_reason)
    return R.type2_reduced


def graded_quotient_rank(R: RelationSystem, include_type2: bool) -> dict:
    """Generator count modulo the relation rows, per degree: less the rank
    of the first kind, and with the second kind less the rank of its rows
    reduced by the first kind."""
    reduced = _second_kind(R) if include_type2 else {}
    return {q: len(generators) - len(R.first_kind[q]) - len(Echelon(R.field, reduced.get(q, ())))
            for q, generators in R.generators.items()}


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

    Each row is reduced by the first-kind rows; the reduced vector is
    supported on the quotient basis (the non-pivot generators).  Verifies
    that perturbing every representing cocycle by every coboundary
    generator leaves the reduced vectors exactly unchanged, and that the
    whole family is linearly independent.
    """
    field, cohomology, p = R.field, R.trivialized, R.field.char
    per_degree = {}
    independent = stable = True
    for q, reduced in sorted(_second_kind(R).items()):
        span, rows, width = R.first_kind[q], R.type2[q], len(R.generators[q])
        per_degree[q] = [(ci, A, [r.get(j, field.zero) for j in range(width)])
                         for (ci, A, _), r in zip(rows, reduced)]
        if len(Echelon(field, reduced)) != len(reduced):
            independent = False
        index = {e: k for k, (_, e) in enumerate(R.generators[q])}
        degree = R.n - 1 - q
        elems = cohomology.complex.labels[degree]
        cbs = cohomology.boundaries(degree)
        for (ci, A, _), base in zip(rows, reduced):
            z = R.type2_cocycles[q][ci]
            for cb in cbs:
                zp = [field(a + cb.get(j, 0)) for j, a in enumerate(z)]
                if span.reduce(_row(R.coefficients, index, elems, zp, A, p)) != base:
                    stable = False
    return KernelGenerators(per_degree, independent, stable)
