"""Rank-level spectral sequence of a torus space over a simplicial poset.

The pages are determined by the poset's homology, its h-vector, and a
manifold profile holding the orbit space's Betti numbers and connecting
ranks.  The closed forms give every entry: off-border entries are Betti
numbers times binomial weights, diagonal (border) entries follow the
h-vector with Betti corrections, and column n decomposes into labeled
bidegree components, each emitting one full-rank differential at a known
page.  An independent sheaf-cochain route recomputes the low columns for
cross-validation.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .poset import SimplicialPoset
from .facevec import binom
from .formats import ManifoldProfile


def cone_profile(S: SimplicialPoset, field) -> ManifoldProfile:
    """Profile of the cone over the poset: the orbit space is acyclic and
    every connecting map is an isomorphism onto reduced homology."""
    return S.job(field).cone_profile


def cone_profile_of(job) -> ManifoldProfile:
    """The uncached work of `cone_profile`."""
    n = job.S.n
    rb = job.reduced_betti
    bQ = tuple([1] + [0] * n)
    bQrel = tuple(rb.get(i - 1, 0) for i in range(n + 1))
    rank_delta = tuple(rb.get(i - 1, 0) for i in range(1, n + 1))
    return ManifoldProfile(n, bQ, bQrel, rank_delta, source="cone")


class ProfileDiagnostics(NamedTuple):
    ok: bool
    messages: list


def validate_profile(S: SimplicialPoset, P: ManifoldProfile, field) -> ProfileDiagnostics:
    """Long-exact-sequence consistency of the profile against b(|S|); a
    profile tagged "cone" must be the cone profile."""
    msgs = []
    n = S.n
    if P.n != n:
        msgs.append(f"profile n={P.n} but poset has maximal rank {n}")
        return ProfileDiagnostics(False, msgs)
    if len(P.bQ) != n + 1 or len(P.bQrel) != n + 1 or len(P.rank_delta) != n:
        msgs.append("profile arrays have wrong lengths")
        return ProfileDiagnostics(False, msgs)
    if any(v < 0 for v in P.bQ + P.bQrel + P.rank_delta):
        msgs.append("negative entries")
        return ProfileDiagnostics(False, msgs)
    b = S.job(field).betti
    bS = [b.get(i, 0) for i in range(n)] + [0]

    def rd(i):
        # rank of delta_i with delta_0 and delta_{n+1} zero
        if 1 <= i <= n:
            return P.rank_delta[i - 1]
        return 0

    for i in range(n + 1):
        incoming = bS[i] - rd(i + 1)
        outgoing = P.bQrel[i] - rd(i)
        if incoming < 0:
            msgs.append(f"rank delta_{i + 1} exceeds b_{i}(boundary)")
            continue
        if outgoing < 0:
            msgs.append(f"rank delta_{i} exceeds b_{i}(Q, boundary)")
            continue
        if P.bQ[i] != incoming + outgoing:
            msgs.append(f"degree {i}: b_i(Q) = {P.bQ[i]} but the exact sequence "
                        f"forces {incoming} + {outgoing}")
    # the cone-only checks trust the tag, so it must name the cone's numbers
    if P.source == "cone" and P != S.job(field).cone_profile:
        msgs.append("profile is tagged 'cone' but is not the cone profile of this "
                    "poset; tag it 'user'")
    return ProfileDiagnostics(not msgs, msgs)


class SpectralPage(NamedTuple):
    """One page: entries by (p, q) plus the labeled column-n decomposition."""

    page: str
    n: int
    entries: dict                # (p, q) -> dim
    column_components: dict      # (q1, q2) -> dim, the column p = n pieces

    def entry(self, p, q):
        return self.entries.get((p, q), 0)

    def border(self):
        return [self.entry(q, q) for q in range(self.n + 1)]

    def as_dict(self):
        return {"page": self.page, "n": self.n,
                "entries": {f"{p},{q}": d for (p, q), d in sorted(self.entries.items()) if d},
                "column_components": {f"{q1},{q2}": d for (q1, q2), d
                                      in sorted(self.column_components.items()) if d},
                "border": self.border()}


def pages(S: SimplicialPoset, P: ManifoldProfile, field):
    """The artificial first page, the second page, and the limit page.

    Entries above the diagonal vanish; off-border entries in columns below
    n carry boundary Betti numbers times binomial weights; the diagonal
    follows the h-vector with alternating Betti corrections; column n is a
    sum of labeled components, each hit by one full-rank differential.
    Computed once per (poset, field, profile).
    """
    return S.job(field).pages(P)


def pages_of(job, P: ManifoldProfile):
    """The uncached work of `pages`."""
    S = job.S
    diag = validate_profile(S, P, job.field)
    if not diag.ok:
        raise InputError("invalid profile: " + "; ".join(diag.messages))
    verdict = job.classify
    if not verdict.buchsbaum:
        raise InputError(f"the spectral-sequence pages need a Buchsbaum poset; this one is "
                         f"not Buchsbaum over {job.field.name} (failures as element, "
                         f"degree, dim: {[list(f) for f in verdict.failures]})")
    n = S.n
    fv = job.face_vectors
    b = job.betti
    bt = fv.b_tilde

    entries = {}
    comps = {}
    for p in range(n):
        for q in range(p + 1):
            if q < p:
                entries[(p, q)] = b.get(p, 0) * binom(n, q)
            else:
                corr = sum((-1) ** (j + q) * bt[j] for j in range(q + 1))
                entries[(p, q)] = fv.h[q] + binom(n, q) * corr
    for q1 in range(n + 1):
        for q2 in range(n + 1):
            d = P.bQrel[q1] * binom(n, q2)
            if d:
                comps[(q1, q2)] = d
    for q in range(-n, n + 1):
        total = sum(d for (q1, q2), d in comps.items() if q1 + q2 == n + q)
        if total:
            entries[(n, q)] = total
    e1plus = SpectralPage("1+", n, dict(entries), dict(comps))

    # run the differentials; the page-r differential is emitted by the
    # column-n component with q1 = n + 1 - r and has full rank when its
    # target exists on or below the diagonal
    cur_entries = dict(entries)
    cur_comps = dict(comps)
    e2 = None
    for r in range(1, n + 1):
        q1 = n + 1 - r
        rank_d = P.rank_delta[q1 - 1]
        if rank_d:
            for q2 in range(n + 1):
                if (q1, q2) not in cur_comps:
                    continue
                if q1 - 1 < q2:
                    continue      # target above the diagonal: zero map
                drop = rank_d * binom(n, q2)
                src = cur_comps[(q1, q2)]
                tgt = cur_entries.get((q1 - 1, q2), 0)
                if drop > src or drop > tgt:
                    raise InputError(f"differential rank exceeds source or target "
                                     f"at component ({q1},{q2})")
                cur_comps[(q1, q2)] = src - drop
                q_src = q1 + q2 - n
                cur_entries[(n, q_src)] = cur_entries.get((n, q_src), 0) - drop
                cur_entries[(q1 - 1, q2)] = tgt - drop
        if r == 1:
            e2 = SpectralPage("2", n, dict(cur_entries), dict(cur_comps))
    if e2 is None:
        e2 = SpectralPage("2", n, dict(cur_entries), dict(cur_comps))
    einf = SpectralPage("inf", n, dict(cur_entries), dict(cur_comps))
    for (p, q), d in einf.entries.items():
        if q == p and d < 0:
            raise InputError(f"negative limit entry at ({p},{q})")
    return e1plus, e2, einf


class BigradedTable(NamedTuple):
    n: int
    entries: dict               # (i, j) -> dim
    note: str = ("diagonal convention: H[i,i] = E_inf[i,i] + b_i(Q,dQ) * C(n,i) "
                 "for i < n; tables placing the h-corrected term elsewhere "
                 "differ by an index shift")

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def totals(self):
        out = [0] * (2 * self.n + 1)
        for (i, j), d in self.entries.items():
            out[i + j] += d
        return out

    def as_dict(self):
        return {"n": self.n,
                "entries": {f"{i},{j}": d for (i, j), d in sorted(self.entries.items()) if d},
                "totals": self.totals(), "note": self.note}


def bigraded_betti(S: SimplicialPoset, P: ManifoldProfile, field) -> BigradedTable:
    """The double grading on the homology of the torus space.

    Above the diagonal the orbit space's relative homology appears, below
    it the absolute homology, on the diagonal the limit border plus a
    relative correction, and at the far corner the top relative group.
    """
    n = S.n
    e1plus, _, einf = S.job(field).pages(P)
    entries = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i > j:
                d = P.bQ[i] * binom(n, j)
            elif i < j:
                d = P.bQrel[i] * binom(n, j)
            elif i < n:
                d = einf.entry(i, i) + P.bQrel[i] * binom(n, i)
            else:
                d = P.bQrel[n]
            if d:
                entries[(i, j)] = d
    table = BigradedTable(n, entries)
    totals = table.totals()
    for k in range(2 * n + 1):
        anti = sum(einf.entry(p, k - p) for p in range(n + 1))
        if anti != totals[k]:
            raise InputError(f"total in degree {k} disagrees with the limit-page "
                             f"antidiagonal ({totals[k]} vs {anti})")
    return table


def euler_characteristic_from_e1(S: SimplicialPoset, P: ManifoldProfile, field) -> int:
    """Alternating sum over the full first page (column n from the profile,
    lower columns from the tilde-f weighted stalk counts)."""
    n = S.n
    fv = S.job(field).face_vectors
    total = 0
    for p in range(n):
        for q in range(p + 1):
            total += (-1) ** (p + q) * binom(p, q) * fv.f_tilde[n - p - 1]
    for q1 in range(n + 1):
        for q2 in range(n + 1):
            total += (-1) ** (q1 + q2) * P.bQrel[q1] * binom(n, q2)
    return total


class CrosscheckReport(NamedTuple):
    passed: bool
    truncated_mismatches: list
    full_mismatches: list
    sheaf_truncated: dict
    sheaf_full: dict

    def as_dict(self):
        return {"passed": self.passed,
                "truncated_mismatches": [list(x) for x in self.truncated_mismatches],
                "full_mismatches": [list(x) for x in self.full_mismatches],
                "sheaf_truncated": {f"{p},{q}": d for (p, q), d
                                    in sorted(self.sheaf_truncated.items()) if d},
                "sheaf_full": {f"{p},{q}": d for (p, q), d
                               in sorted(self.sheaf_full.items()) if d}}


def e2_border_sheaf_crosscheck(S: SimplicialPoset, cmap, field) -> CrosscheckReport:
    """Independent sheaf-cochain route to the low columns of the pages.

    Cone case.  The truncated cochain cohomology of structure (x) quotient
    must reproduce the artificial first page for p < n, and the complex
    with the empty-face stalk included must reproduce the second page for
    p < n.  Entries with q > p must vanish along the way.
    """
    if cmap.n != S.n:
        raise InputError("page cross-check needs torus rank equal to the poset rank")
    job = S.job(field)
    kit = job.kit(cmap)
    n = S.n
    e1plus, e2, _ = job.pages(job.cone_profile)
    sheaf_trunc = {}
    sheaf_full = {}
    for q in range(kit.n + 1):
        trunc = kit.sheaf_dims("quotient", q, True)
        full = kit.sheaf_dims("quotient", q, False)
        for p in range(n):
            sheaf_trunc[(p, q)] = trunc.get(n - 1 - p, 0)
            sheaf_full[(p, q)] = full.get(n - 1 - p, 0)
    mism_t = [(p, q, sheaf_trunc[(p, q)], e1plus.entry(p, q))
              for (p, q) in sheaf_trunc if sheaf_trunc[(p, q)] != e1plus.entry(p, q)]
    mism_f = [(p, q, sheaf_full[(p, q)], e2.entry(p, q))
              for (p, q) in sheaf_full if sheaf_full[(p, q)] != e2.entry(p, q)]
    above = [(p, q) for (p, q), d in sheaf_trunc.items() if q > p and d]
    passed = not (mism_t or mism_f or above)
    return CrosscheckReport(passed, mism_t, mism_f, sheaf_trunc, sheaf_full)


class TheoremReport(NamedTuple):
    checks: dict                 # name -> {"applicable": bool, "passed": bool, ...}

    @property
    def passed(self):
        return all(v["passed"] for v in self.checks.values() if v["applicable"])

    def as_dict(self):
        return {"passed": self.passed, "checks": self.checks}


def theorem_checks(S: SimplicialPoset, P: ManifoldProfile, field) -> TheoremReport:
    """Every border and duality statement the pages must satisfy.

    The manifold statements apply when the structure sheaf is constant
    (an orientable homology manifold over the field).
    """
    job = S.job(field)
    n = S.n
    fv = job.face_vectors
    e1plus, e2, einf = job.pages(P)
    manifold = job.constancy.is_constant
    checks = {}

    border = {}
    ok = True
    for q in range(n):
        corr = sum((-1) ** (j + q) * fv.b_tilde[j] for j in range(q + 1))
        want = fv.h[q] + binom(n, q) * corr
        border[str(q)] = [e1plus.entry(q, q), want]
        ok = ok and e1plus.entry(q, q) == want
    checks["border_first_page"] = {"applicable": True, "passed": ok, "values": border}

    vals = {}
    ok = True
    for q in range(n - 1):
        vals[str(q)] = [e1plus.entry(q, q), fv.h_prime[n - q]]
        ok = ok and e1plus.entry(q, q) == fv.h_prime[n - q]
    vals[str(n - 1)] = [e1plus.entry(n - 1, n - 1), fv.h_prime[1] + n]
    ok = ok and e1plus.entry(n - 1, n - 1) == fv.h_prime[1] + n
    checks["border_manifold_first_page"] = {"applicable": manifold, "passed": ok,
                                            "values": vals}

    applicable = manifold and P.bQrel[n] == 1 and P.rank_delta[n - 1] == 1
    vals = {}
    ok = True
    for q in range(n + 1):
        vals[str(q)] = [e2.entry(q, q), fv.h_prime[n - q]]
        ok = ok and e2.entry(q, q) == fv.h_prime[n - q]
    checks["border_second_page"] = {"applicable": applicable, "passed": ok, "values": vals}

    applicable = P.source == "cone"
    vals = {}
    ok = True
    for q in range(n + 1):
        vals[str(q)] = [einf.entry(q, q), fv.h_double_prime[q]]
        ok = ok and einf.entry(q, q) == fv.h_double_prime[q]
    checks["border_limit_cone"] = {"applicable": applicable, "passed": ok, "values": vals}

    nonneg = all(einf.entry(q, q) >= 0 for q in range(n + 1))
    checks["border_limit_nonnegative"] = {"applicable": True, "passed": nonneg,
                                          "values": einf.border()}

    table = bigraded_betti(S, P, field)
    symmetric_profile = all(P.bQ[i] == P.bQrel[n - i] for i in range(n + 1))
    ok = True
    for i in range(n + 1):
        for j in range(n + 1):
            if table.entry(i, j) != table.entry(n - i, n - j):
                ok = False
    checks["bigraded_duality"] = {"applicable": manifold and symmetric_profile,
                                  "passed": ok, "values": table.totals()}

    chi_e1 = euler_characteristic_from_e1(S, P, field)
    chi_h = sum((-1) ** k * v for k, v in enumerate(table.totals()))
    checks["euler_page_invariance"] = {"applicable": True, "passed": chi_e1 == chi_h,
                                       "values": [chi_e1, chi_h]}
    return TheoremReport(checks)
