import time
from fractions import Fraction

import pytest

from torushom.errors import InputError
from torushom.field import QQ, PrimeField, field_from_name, _is_prime


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_agrees_with_trial_division_below_10k():
    assert [n for n in range(-3, 10_000) if _is_prime(n) != _trial_division(n)] == []


def test_mersenne_61_accepted_quickly():
    start = time.perf_counter()
    F = field_from_name(f"Fp:{2**61 - 1}")
    assert time.perf_counter() - start < 1.0
    assert F.p == 2**61 - 1
    assert F(F.inv(12345) * 12345) == 1


@pytest.mark.parametrize("n", [561, 3215031751])
def test_pseudoprimes_rejected(n):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    assert not _is_prime(n)
    with pytest.raises(InputError, match="not prime"):
        PrimeField(n)


@pytest.mark.parametrize("n", [318665857834031151167461, 3317044064679887385961981])
def test_strong_pseudoprimes_to_every_witness_rejected(n):
    # both pass Miller-Rabin for all twelve witnesses, which is exact only
    # below 2^64, so a prime field of either is refused for its size
    assert n > 2**64
    with pytest.raises(InputError, match=r"too large: prime fields need p < 2\^64"):
        PrimeField(n)


def test_beyond_64_bits():
    # the smallest prime above 2^64 is refused, the largest below it accepted
    assert PrimeField(2**64 - 59).p == 2**64 - 59
    for n in (2**64 + 13, 2**89 - 1, 2**127 - 1, 2**67 - 1, (2**61 - 1) ** 2):
        with pytest.raises(InputError, match=r"too large: prime fields need p < 2\^64"):
            field_from_name(f"Fp:{n}")


def _exact(v, value):
    """v is the Q element `value`: an int when integral, else a Fraction."""
    integral = Fraction(value).denominator == 1
    return type(v) is (int if integral else Fraction) and v == value


def test_rationals_hold_integral_elements_as_ints():
    assert _exact(QQ(Fraction(4, 2)), 2)
    assert _exact(QQ(Fraction(-6, 4)), Fraction(-3, 2))
    assert _exact(QQ(True), 1) and _exact(QQ(False), 0)
    assert _exact(QQ(7), 7) and _exact(QQ("5/10"), Fraction(1, 2))
    assert _exact(QQ.zero, 0) and _exact(QQ.one, 1)
    assert bool(QQ(0)) is False and bool(QQ(Fraction(0, 3))) is False


def test_rationals_invert_without_floats():
    assert _exact(QQ.inv(2), Fraction(1, 2))
    assert _exact(QQ.inv(-1), -1) and _exact(QQ.inv(1), 1)
    assert _exact(QQ.inv(Fraction(-1)), -1)
    assert _exact(QQ.inv(Fraction(1, 3)), 3)
    assert _exact(QQ.inv(Fraction(-2, 5)), Fraction(-5, 2))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
