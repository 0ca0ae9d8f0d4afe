"""Exact scalar fields: the rationals and prime fields F_p.

Every computation in this package runs over one of these fields; there is
no floating point anywhere.  A rational element is a plain `int` when it
is integral and a `fractions.Fraction` only when its denominator is not 1;
prime-field elements are plain ints in ``[0, p)``.  A field object is a
scalar type, not an arithmetic interface: it knows its characteristic
(``char``, 0 for Q), its ``zero``, ``one`` and ``inv``, and calling it
converts a value into an element.  Code computes with Python operators
and then normalises, either with ``field(...)``, which maps an int or a
`Fraction` into the field, or, in the matrix kernels of
`torushom.exactlin` and the other per-entry loops, by reading
``field.char`` once and applying ``% p`` when it is nonzero.  Since every
element is normalised, an element is zero exactly when it is falsy.

Over Q, ``int`` and `Fraction` operands mix exactly under ``+``, ``-`` and
``*``, so the integral matrices the invariants start from (boundaries,
incidence signs, characteristic maps and their wedges) are eliminated in
int arithmetic until a pivot other than ±1 appears.  An operator result
may be an integral `Fraction`; it equals, hashes and prints as the int.
The one operator that is not exact is ``/``: two int elements divide into
a float.  So divide only through ``field.inv``, never with ``/``.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputError


class Rationals:
    """The field Q.  An element is an int when integral, else a Fraction."""

    char = 0
    name = "Q"
    zero = 0
    one = 1

    def __call__(self, v):
        if type(v) is int:
            return v
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        return self(1 / Fraction(a))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with the first twelve primes as witnesses is exact for every
# n < 318665857834031151167461 (Jaeschke 1993), which covers all 64-bit n.
# A prime field of a larger p is refused: it would show nothing that a
# smaller prime dividing no torsion does not.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 1 << 64


def _is_prime(p: int) -> bool:
    """Primality of p < `PRIME_LIMIT` in O(log^3 p) bit operations, never by
    trial division; exact."""
    if p < 2:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    return all(_strong_probable_prime(p, w) for w in _WITNESSES)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: n odd, n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class PrimeField:
    """The field F_p for a prime p.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise InputError(f"{p} is too large: prime fields need p < 2^64")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"

    def __call__(self, v):
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (v.numerator * pow(v.denominator, -1, self.p)) % self.p
        return int(v) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field spec: "Q", "Fp:5", or "F5"."""
    s = name.strip()
    if s == "Q":
        return QQ
    if s.startswith("Fp:"):
        return _prime_field(s[3:], "--field")
    if s.startswith("F") and s[1:].isdigit():
        return _prime_field(s[1:], "--field")
    raise InputError(f"unknown --field {name!r}; expected Q or Fp:<p>")


def prime_fields(text: str) -> list:
    """The prime fields of a comma-separated list of primes, e.g. "2,3,5"."""
    return [_prime_field(tok, "--primes") for tok in text.split(",") if tok.strip()]


def _prime_field(text: str, option: str) -> PrimeField:
    """The prime field of an option's value, refused with a line naming the option."""
    try:
        p = int(text)
    except ValueError:
        raise InputError(f"{option}: {text.strip()!r} is not an integer") from None
    try:
        return PrimeField(p)
    except InputError as e:
        raise InputError(f"{option}: {e}") from None
