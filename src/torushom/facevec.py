"""Face-count vectors and their consistency identities.

All vectors are exact integer arrays.  The h-vector is the standard
binomial transform of the f-vector; the corrected vectors add reduced
Betti numbers of the poset, and the tilde-f vector counts faces weighted
by the top reduced homology of their links (the structure-sheaf stalk
dimensions).  Polynomial identities are checked symbolically, as equality
of coefficient lists, never at sampled points.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .poset import SimplicialPoset, face_counts


def binom(n: int, k: int) -> int:
    if k < 0 or k > n or n < 0:
        return 0
    r = 1
    for i in range(k):
        r = r * (n - i) // (i + 1)
    return r


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def poly_scale(c, a):
    return [c * v for v in a]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_trim(a):
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def h_from_f(f, n: int):
    """Coefficients of sum_i f_{i-1} t^i (1-t)^(n-i)."""
    acc = [0] * (n + 1)
    for i in range(n + 1):
        term = poly_scale(f[i], poly_mul([0] * i + [1], poly_pow([1, -1], n - i)))
        acc = poly_add(acc, term)
    acc = acc + [0] * (n + 1 - len(acc))
    return tuple(acc[: n + 1])


class FaceVectors(NamedTuple):
    n: int
    f: tuple                 # (f_-1, ..., f_{n-1})
    h: tuple                 # (h_0, ..., h_n)
    h_prime: tuple
    h_double_prime: tuple
    f_tilde: tuple           # (f~_0, ..., f~_{n-1})
    b_tilde: tuple           # reduced Betti numbers (b~_0, ..., b~_{n-1})
    chi: int
    chi_tilde: int

    def as_dict(self):
        return {"n": self.n, "f": list(self.f), "h": list(self.h),
                "h_prime": list(self.h_prime),
                "h_double_prime": list(self.h_double_prime),
                "f_tilde": list(self.f_tilde), "b_tilde": list(self.b_tilde),
                "chi": self.chi, "chi_tilde": self.chi_tilde}


def _f_tilde(job):
    """Per-dimension count of faces weighted by top reduced link homology."""
    S = job.S
    n = S.n
    out = [0] * n
    for j in range(1, S.size):
        out[S.ranks[j] - 1] += job.link_dims[j].get(n - 1, 0)
    return tuple(out)


def face_vectors(S: SimplicialPoset, field) -> FaceVectors:
    """All combinatorial vectors of a pure poset over the active field.

    Computed once per (poset, field), so every consumer sees one source
    of truth.
    """
    return S.job(field).face_vectors


def face_vectors_of(job) -> FaceVectors:
    """The uncached work of `face_vectors`."""
    S = job.S
    if not S.is_pure():
        raise InputError("face vectors need a pure poset")
    n = S.n
    f = face_counts(S)
    h = h_from_f(f, n)
    rb = job.reduced_betti
    b_tilde = tuple(rb.get(d, 0) for d in range(n))
    chi = sum((-1) ** i * f[i + 1] for i in range(n))
    chi_tilde = chi - 1
    h_prime = []
    for i in range(n + 1):
        corr = sum((-1) ** (i - j - 1) * b_tilde[j - 1] for j in range(1, i))
        h_prime.append(h[i] + binom(n, i) * corr)
    h_pp = []
    for i in range(n):
        h_pp.append(h_prime[i] - binom(n, i) * (b_tilde[i - 1] if i >= 1 else 0))
    h_pp.append(h_prime[n])
    f_tilde = _f_tilde(job)
    return FaceVectors(n, f, h, tuple(h_prime), tuple(h_pp), f_tilde, b_tilde,
                       chi, chi_tilde)


class IdentityReport(NamedTuple):
    passed: bool
    details: dict

    def as_dict(self):
        return {"passed": self.passed, "details": self.details}


def ft_consistency_check(S: SimplicialPoset, field) -> IdentityReport:
    """The tilde-f generating identity, as polynomials and coefficientwise.

    f_S(t) = (1 - chi) + (-1)^n * sum_k f~_k (-t-1)^(k+1), and the
    equivalent h-coefficient relation.
    """
    fv = S.job(field).face_vectors
    n = fv.n
    lhs = [fv.f[i] for i in range(n + 1)]          # f_S(t) = sum f_{i-1} t^i
    rhs = [1 - fv.chi]
    for k in range(n):
        term = poly_scale((-1) ** n * fv.f_tilde[k], poly_pow([-1, -1], k + 1))
        rhs = poly_add(rhs, term)
    poly_ok = poly_trim(lhs) == poly_trim(rhs)
    coeff_ok = True
    for i in range(n + 1):
        total = (1 - fv.chi) * (-1) ** i * binom(n, i)
        for k in range(n):
            total += (-1) ** (n - k - i - 1) * binom(n - k - 1, i) * fv.f_tilde[k]
        if total != fv.h[i]:
            coeff_ok = False
    return IdentityReport(poly_ok and coeff_ok,
                          {"polynomial": poly_ok, "coefficientwise": coeff_ok,
                           "f": list(fv.f), "f_tilde": list(fv.f_tilde)})


def dehn_sommerville_check(S: SimplicialPoset, field) -> IdentityReport:
    """Symmetry relations for Buchsbaum posets with one-dimensional stalks.

    Checks h_i = h_{n-i} + (-1)^i C(n,i) (1 + (-1)^n chi~) for all i; when
    the structure sheaf is constant (orientable homology manifold) also
    checks the symmetry of the corrected vector.
    """
    job = S.job(field)
    fv = job.face_vectors
    n = fv.n
    if any(ft != f for ft, f in zip(fv.f_tilde, fv.f[1:])):
        return IdentityReport(False, {"applicable": False,
                                      "reason": "some stalk is not one-dimensional"})
    per_i = {}
    ok = True
    for i in range(n + 1):
        lhs = fv.h[i]
        rhs = fv.h[n - i] + (-1) ** i * binom(n, i) * (1 + (-1) ** n * fv.chi_tilde)
        per_i[str(i)] = [lhs, rhs]
        ok = ok and lhs == rhs
    details = {"applicable": True, "h_relation": per_i}
    manifold = job.constancy.is_constant
    connected = fv.b_tilde[0] == 0
    # the corrected-vector symmetry needs a connected orientable homology
    # manifold: two disjoint circles have h'' = (1, 0, 2)
    if manifold and connected:
        sym = all(fv.h_double_prime[i] == fv.h_double_prime[n - i] for i in range(n + 1))
        details["h_double_prime_symmetric"] = sym
        ok = ok and sym
    return IdentityReport(ok, details)
