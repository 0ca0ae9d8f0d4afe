"""Simplicial posets: construction, validation, stars, incidence signs.

A simplicial poset is a finite ranked poset with a unique minimum (the
empty face, id 0) in which every lower interval is a boolean lattice.
Unlike a simplicial complex it may carry several faces with the same
vertex set, so the general input format is a cover table; a facet list
covers the complex case.  Element ids are dense integers assigned at
build time and every downstream table indexes by id.  The star of a face
I is its upper set {J >= I} (`upper_set`); the local homology complexes
are the cellular complexes of stars (`complexes.cellular_chain_complex`),
cached over the integers in `_stars`.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import InputError


# Largest poset built from a preset or a facet list.  Both can name far
# larger posets in a few characters (boundary_of_simplex(30) has 2^31 - 1
# elements), so they are refused before their faces are enumerated.
MAX_ELEMENTS = 1000


class SimplicialPoset:
    """An immutable simplicial poset.

    The tables are tuples, and equality and hashing are by identity, so a
    poset keys caches in O(1).  Assigning or deleting an attribute raises
    `AttributeError`.  Its jobs (`job`) and its integer star complexes
    (`_stars`) live as long as the poset does, and so do the tables of its
    rank-2 intervals (`diamonds`), of its incidence signs (`cover_signs`)
    and of its axiom check (`diagnostics`), each built on first read.
    """

    def __init__(self, ranks, vertex_sets, covers, name=""):
        ranks = tuple(ranks)
        covers = tuple(tuple(c) for c in covers)
        m = len(ranks)
        covered_by = [[] for _ in range(m)]
        for j, cs in enumerate(covers):
            for i in cs:
                covered_by[i].append(j)
        below = [set() for _ in range(m)]
        for i in sorted(range(m), key=lambda k: ranks[k]):
            below[i].add(i)
            for c in covers[i]:
                below[i] |= below[c]
        tables = {"ranks": ranks,
                  "vertex_sets": tuple(tuple(v) for v in vertex_sets),  # sorted labels
                  "covers": covers,                 # ids one rank down, per element
                  "name": name,
                  "covered_by": tuple(tuple(sorted(v)) for v in covered_by),
                  "below": tuple(frozenset(b) for b in below),
                  "_jobs": {},
                  "_stars": {}}
        for attr, value in tables.items():
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"a SimplicialPoset is immutable; cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"a SimplicialPoset is immutable; cannot delete {attr!r}")

    def job(self, field):
        """The `Job` holding this poset's invariants over `field`."""
        from .job import Job      # job.py builds on every layer above this one
        job = self._jobs.get(field)
        if job is None:
            job = self._jobs.setdefault(field, Job(self, field))
        return job

    @property
    def size(self):
        return len(self.ranks)

    @property
    def n(self):
        """Maximal rank (dim S + 1 for pure posets)."""
        return max(self.ranks)

    @property
    def dim(self):
        return self.n - 1

    def elements_of_rank(self, r):
        return [i for i in range(self.size) if self.ranks[i] == r]

    def elements_of_dim(self, d):
        return self.elements_of_rank(d + 1)

    def vertices(self):
        return self.elements_of_rank(1)

    def vertex_labels(self):
        return sorted(self.vertex_sets[v][0] for v in self.vertices())

    def maximal_elements(self):
        return [i for i in range(self.size) if not self.covered_by[i]]

    def is_pure(self):
        return len({self.ranks[i] for i in self.maximal_elements()}) <= 1

    def upper_set(self, i):
        """The faces J >= i in id order: the closure of i under `covered_by`."""
        up = {i}
        stack = [i]
        while stack:
            for j in self.covered_by[stack.pop()]:
                if j not in up:
                    up.add(j)
                    stack.append(j)
        return sorted(up)

    @cached_property
    def diamonds(self) -> tuple:
        """Every rank-2 interval i < j as (i, mids, j), with mids the
        elements strictly between them (two in a simplicial poset), for j
        in id order; built on first read."""
        out = []
        for j in range(self.size):
            r = self.ranks[j]
            if r < 2:
                continue
            below = self.below[j]
            upper = [t for t in below if self.ranks[t] == r - 1]
            for i in below:
                if self.ranks[i] == r - 2:
                    out.append((i, tuple(t for t in upper if i in self.below[t]), j))
        return tuple(out)

    @cached_property
    def cover_signs(self) -> dict:
        """The incidence sign [J:I] of every cover I <_1 J that adds one
        vertex, keyed (J, I); built on first read."""
        signs = {}
        for j, cs in enumerate(self.covers):
            vj = self.vertex_sets[j]
            for i in cs:
                added = set(vj) - set(self.vertex_sets[i])
                if len(added) == 1:
                    v = added.pop()
                    signs[(j, i)] = -1 if sum(1 for w in vj if w < v) % 2 else 1
        return signs

    @cached_property
    def diagnostics(self) -> PosetDiagnostics:
        """The axiom check of `validate`, run on first read: a builder's
        refusal and a report's `validate` section read one pass."""
        msgs = []
        if self.size == 0 or self.ranks[0] != 0 or self.vertex_sets[0] != ():
            msgs.append("missing empty face at id 0")
            return PosetDiagnostics(False, False, -2, msgs)
        if sum(1 for r in self.ranks if r == 0) != 1:
            msgs.append("more than one rank-0 element")
        for i in range(self.size):
            if len(self.vertex_sets[i]) != self.ranks[i]:
                msgs.append(f"element {i}: |vertex_set| != rank")
            for c in self.covers[i]:
                if self.ranks[c] != self.ranks[i] - 1:
                    msgs.append(f"cover {i} -> {c} not graded")
                if not set(self.vertex_sets[c]) < set(self.vertex_sets[i]):
                    msgs.append(f"cover {i} -> {c}: vertex set does not grow")
            if self.ranks[i] > 0 and not self.covers[i]:
                msgs.append(f"element {i} of positive rank covers nothing")
        if msgs:
            return PosetDiagnostics(False, self.is_pure(), self.dim, msgs)
        # boolean lower intervals: 2^|I| elements, one per sub-vertex-set
        for i in range(self.size):
            want = 1 << self.ranks[i]
            got = self.below[i]
            if len(got) != want:
                msgs.append(f"element {i}: lower interval has {len(got)} elements, "
                            f"expected {want} (not boolean)")
                continue
            seen = {self.vertex_sets[j] for j in got}
            expected = {tuple(sorted(c)) for k in range(self.ranks[i] + 1)
                        for c in combinations(self.vertex_sets[i], k)}
            if seen != expected:
                msgs.append(f"element {i}: lower interval misses some sub-vertex-sets")
        # square condition: exactly two intermediates for every I <_2 J
        for i, mids, j in self.diamonds:
            if len(mids) != 2:
                msgs.append(f"pair {i} <2 {j} has {len(mids)} intermediates, expected 2")
        return PosetDiagnostics(not msgs, self.is_pure(), self.dim, msgs)


class PosetDiagnostics(NamedTuple):
    ok: bool
    pure: bool
    dim: int
    messages: list


def build_from_facets(facets, name="") -> SimplicialPoset:
    """Poset of all faces of a simplicial complex given by its facet list."""
    if not facets:
        raise InputError("empty facet list")
    cleaned = []
    for f in facets:
        vs = tuple(sorted(set(int(v) for v in f)))
        if not vs:
            raise InputError("empty facet")
        cleaned.append(vs)
    faces = set()
    for f in dict.fromkeys(cleaned):
        if 2 ** len(f) > MAX_ELEMENTS:
            raise InputError(f"facet {list(f)} has {2 ** len(f)} faces, more than the "
                             f"limit of {MAX_ELEMENTS} elements")
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
        if len(faces) > MAX_ELEMENTS:
            raise InputError(f"facet list has more than {MAX_ELEMENTS} faces")
    ordered = sorted(faces, key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(ordered)}
    ranks = [len(s) for s in ordered]
    covers = []
    for s in ordered:
        covers.append(tuple(sorted(index[t] for t in combinations(s, len(s) - 1))) if s else ())
    S = SimplicialPoset(ranks, ordered, covers, name=name)
    _validate_or_raise(S)
    return S


def build_from_cover_table(entries, name="") -> SimplicialPoset:
    """Poset from explicit (id, rank, vertex_set, covers) rows.

    Ids must be dense 0..m-1 with the empty face at id 0.  This is the
    general format: it can express parallel faces with equal vertex sets.
    """
    m = len(entries)
    by_id = {}
    for e in entries:
        i, rank, vs, cov = e
        if i in by_id:
            raise InputError(f"duplicate id {i}")
        by_id[i] = (int(rank), tuple(sorted(int(v) for v in vs)), tuple(int(c) for c in cov))
    if sorted(by_id) != list(range(m)):
        raise InputError("ids must be dense integers 0..m-1")
    ranks = [by_id[i][0] for i in range(m)]
    vsets = [by_id[i][1] for i in range(m)]
    covers = [tuple(sorted(by_id[i][2])) for i in range(m)]
    if m == 0 or ranks[0] != 0 or vsets[0] != ():
        raise InputError("element 0 must be the empty face with rank 0")
    for i in range(m):
        for c in covers[i]:
            if not (0 <= c < m):
                raise InputError(f"element {i} covers unknown id {c}")
            if ranks[c] != ranks[i] - 1:
                raise InputError(f"cover {i} -> {c} is not graded")
    S = SimplicialPoset(ranks, vsets, covers, name=name)
    _validate_or_raise(S)
    return S


def _validate_or_raise(S: SimplicialPoset):
    diag = validate(S)
    if not diag.ok:
        raise InputError("; ".join(diag.messages))


def validate(S: SimplicialPoset) -> PosetDiagnostics:
    """Check the simplicial poset axioms and report purity and dimension."""
    return S.diagnostics


def incidence_number(S: SimplicialPoset, j: int, i: int) -> int:
    """Sign [J:I] for a cover relation I <_1 J.

    Convention: with vertex_set(J) = vertex_set(I) + {v}, the sign is
    (-1)^(number of vertices of J smaller than v).  It depends only on the
    vertex sets, so parallel faces get equal signs, and the square identity
    holds on every I <_2 J.  Read off the poset's table `cover_signs`.
    """
    sign = S.cover_signs.get((j, i))
    if sign is None:
        if i not in S.covers[j]:
            raise InputError(f"{i} is not covered by {j}")
        added = set(S.vertex_sets[j]) - set(S.vertex_sets[i])
        raise InputError(f"cover {j} -> {i} adds {len(added)} vertices")
    return sign


def face_counts(S: SimplicialPoset):
    """f-vector (f_-1, f_0, ..., f_{n-1}); rejects non-pure posets."""
    if not S.is_pure():
        raise InputError("face_counts requires a pure poset")
    n = S.n
    return tuple(len(S.elements_of_rank(r)) for r in range(n + 1))


# ---------------------------------------------------------------------------
# presets

def preset(name: str) -> SimplicialPoset:
    """Named example posets: boundary_of_simplex(n), cross_polytope_boundary(n),
    digon_cycle(c), torus_7."""
    key, arg = _parse_preset(name)
    # every family has more than `arg` elements, so the size is formed
    # only for a moderate argument
    size = {"boundary_of_simplex": lambda n: 2 ** (n + 1) - 1,
            "cross_polytope_boundary": lambda n: 3 ** n,
            "digon_cycle": lambda c: 1 + 4 * c}.get(key)
    if size is not None and arg is not None and (arg > MAX_ELEMENTS
                                                 or size(arg) > MAX_ELEMENTS):
        raise InputError(f"preset {name!r} has more than {MAX_ELEMENTS} elements")
    if key == "boundary_of_simplex":
        if arg is None or arg < 1:
            raise InputError("boundary_of_simplex needs n >= 1")
        verts = range(1, arg + 2)
        return build_from_facets([c for c in combinations(verts, arg)], name=name)
    if key == "cross_polytope_boundary":
        if arg is None or arg < 1:
            raise InputError("cross_polytope_boundary needs n >= 1")
        pairs = [(i, i + arg) for i in range(1, arg + 1)]
        facets = []
        for choice in range(1 << arg):
            facets.append(tuple(p[(choice >> k) & 1] for k, p in enumerate(pairs)))
        return build_from_facets(facets, name=name)
    if key == "digon_cycle":
        if arg is None or arg < 1:
            raise InputError("digon_cycle needs c >= 1")
        return _digon_cycle(arg, name=name)
    if key == "torus_7":
        if arg is not None:
            raise InputError(f"preset torus_7 takes no argument, got {name!r}")
        return build_from_facets(torus_7_facets(), name=name)
    raise InputError(f"unknown preset {name!r}")


def _parse_preset(name: str):
    s = name.strip()
    if "(" in s:
        if not s.endswith(")"):
            raise InputError(f"malformed preset {name!r}")
        key, argtxt = s[:-1].split("(", 1)
        try:
            return key.strip(), int(argtxt)
        except ValueError:
            raise InputError(f"malformed preset argument in {name!r}") from None
    return s, None


def _digon_cycle(c: int, name="") -> SimplicialPoset:
    # c disjoint digons: vertices (2k-1, 2k) joined by two parallel edges
    entries = [(0, 0, (), ())]
    nid = 1
    vid = {}
    for k in range(1, c + 1):
        for v in (2 * k - 1, 2 * k):
            vid[v] = nid
            entries.append((nid, 1, (v,), (0,)))
            nid += 1
    for k in range(1, c + 1):
        a, b = 2 * k - 1, 2 * k
        for _ in range(2):
            entries.append((nid, 2, (a, b), (vid[a], vid[b])))
            nid += 1
    return build_from_cover_table(entries, name=name or f"digon_cycle({c})")


def torus_7_facets():
    """The 7-vertex (neighborly) triangulation of the torus."""
    tris = set()
    for s in range(7):
        tris.add(tuple(sorted(((0 + s) % 7 + 1, (1 + s) % 7 + 1, (3 + s) % 7 + 1))))
        tris.add(tuple(sorted(((0 + s) % 7 + 1, (2 + s) % 7 + 1, (3 + s) % 7 + 1))))
    return sorted(tris)
