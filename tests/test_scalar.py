import math
from fractions import Fraction

import pytest

from starbundle.scalar import CScalar, Scalar, _cs, parse_scalar

from conftest import random_scalar


def test_canonical_form_drops_zeros():
    s = Scalar({0: Fraction(1, 2), 1: 0})
    assert s.terms == {0: Fraction(1, 2)}
    assert Scalar({2: Fraction(0)}).is_zero()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Scalar({0: 0.1}),
        lambda: Scalar.rational(0.1),
        lambda: Scalar.pi(1, 0.1),
        lambda: _cs(0.1, 2),
        lambda: _cs(1, 0.1),
        lambda: CScalar(0.5),
    ],
    ids=["Scalar", "rational", "pi", "_cs-re", "_cs-im", "CScalar"],
)
def test_float_coefficients_rejected(make):
    # a float would be stored as its binary expansion, not as the number meant
    with pytest.raises(TypeError):
        make()


def test_ring_axioms_randomized():
    import random

    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_pi_bookkeeping():
    two_pi = Scalar.pi(1, 2)
    assert (two_pi / Scalar.pi(1, 2)) == Scalar.one()
    assert (Scalar.rational(Fraction(3, 7)) / two_pi) == Scalar.pi(-1, Fraction(3, 14))
    assert float(two_pi) == pytest.approx(2 * math.pi)


def test_two_pi_integer_detection():
    assert Scalar.pi(1, 2).is_two_pi_integer()
    assert Scalar.pi(1, -6).is_two_pi_integer()
    assert Scalar.zero().is_two_pi_integer()
    assert not Scalar.pi(1, 1).is_two_pi_integer()
    assert not Scalar.rational(Fraction(3, 7)).is_two_pi_integer()
    assert not (Scalar.pi(1, 2) + Scalar.rational(1)).is_two_pi_integer()


def test_integrality():
    assert Scalar.rational(3).is_integer()
    assert not Scalar.rational(Fraction(3, 7)).is_integer()
    assert not Scalar.pi().is_integer()


def test_inverse_only_for_monomials():
    assert Scalar.pi(2, Fraction(3, 4)).inverse() == Scalar.pi(-2, Fraction(4, 3))
    with pytest.raises(ZeroDivisionError):
        (Scalar.one() + Scalar.pi()).inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


def test_parse_and_json_round_trip():
    for text, expected in [
        ("3/7", Scalar.rational(Fraction(3, 7))),
        ("2*pi", Scalar.pi(1, 2)),
        ("2pi", Scalar.pi(1, 2)),
        ("pi", Scalar.pi()),
        ("-1/2*pi^-1 + 1", Scalar.pi(-1, Fraction(-1, 2)) + Scalar.one()),
        ("0", Scalar.zero()),
        ("1 - 2pi", Scalar.one() - Scalar.pi(1, 2)),
    ]:
        assert parse_scalar(text) == expected


def test_parse_rejects_garbage():
    for text in ["", "1/0", "pie", "x+1"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(text)


def test_cscalar_arithmetic():
    i = CScalar.i()
    assert i * i == -CScalar.one()
    z = CScalar(Scalar.rational(2), Scalar.pi())
    assert z.conj().conj() == z
    assert z.times_i() == z * i
    assert (z * z.conj()).is_real()


def test_equal_scalars_hash_alike():
    for a, b in [
        (Scalar.rational(3), 3),
        (Scalar.rational(Fraction(3, 7)), Fraction(3, 7)),
        (Scalar.zero(), 0),
        (CScalar(3), 3),
        (CScalar(3), Scalar.rational(3)),
        (CScalar(Scalar.pi()), Scalar.pi()),
    ]:
        assert a == b
        assert len({a, b}) == 1
