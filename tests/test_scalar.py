import math
import random
from fractions import Fraction

import pytest

from starbundle.chartfn import ChartFunction
from starbundle.manifold import Torus
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


def test_operators_defer_to_the_other_operand():
    """An operand ``coerce`` refuses yields NotImplemented, so the other
    operand's reflected operator answers; a float still raises."""
    z = ChartFunction.fourier(Torus(1).space, {"x": 1})
    assert CScalar(1) + z == z + CScalar(1)
    assert CScalar(1) - z == -(z - CScalar(1))
    assert Scalar.pi() * z == z * Scalar.pi()
    assert Scalar.coerce(1) + CScalar(0, 1) == CScalar(0, 1) + Scalar.coerce(1) == CScalar(1, 1)
    assert Scalar.coerce(1) - CScalar(0, 1) == -(CScalar(0, 1) - Scalar.coerce(1))
    assert Scalar.pi() * CScalar.i() == CScalar.i() * Scalar.pi() == CScalar(0, Scalar.pi())
    for op in ("__add__", "__mul__", "__sub__", "__rsub__"):
        assert getattr(Scalar.one(), op)(1.5) is NotImplemented
        assert getattr(CScalar.one(), op)(z) is NotImplemented


def test_equal_scalars_hash_alike():
    s = Scalar({-1: Fraction(3, 7), 2: Fraction(-5, 6)})
    a = CScalar(Scalar.pi(1, Fraction(1, 2)), Fraction(1, 3))
    b = CScalar(Fraction(2, 5), Scalar.pi(-1, 3))
    c = CScalar(Fraction(-7, 6), Fraction(5, 4))
    assert not ((a * b) * c).is_real()
    for a, b in [
        (Scalar.rational(3), 3),
        (Scalar.rational(Fraction(3, 7)), Fraction(3, 7)),
        (Scalar.zero(), 0),
        (CScalar(3), 3),
        (CScalar(3), Scalar.rational(3)),
        (CScalar(Scalar.pi()), Scalar.pi()),
        (CScalar.coerce(s), s),
        (CScalar(Fraction(3, 7), 0), Fraction(3, 7)),
        ((a * b) * c, a * (b * c)),
    ]:
        assert a == b
        assert len({a, b}) == 1


def test_matches_fraction_reference():
    """The integer-numerator kernel against a dict of Fraction pairs: every
    value is {pi power: (re, im)} with no (0, 0) entry."""

    def ref_add(x, y):
        out = dict(x)
        for m, (a, b) in y.items():
            c, d = out.get(m, (0, 0))
            out[m] = (a + c, b + d)
        return {m: p for m, p in out.items() if p != (0, 0)}

    def ref_mul(x, y):
        out = {}
        for m1, (a, b) in x.items():
            for m2, (c, d) in y.items():
                e, f = out.get(m1 + m2, (0, 0))
                out[m1 + m2] = (e + a * c - b * d, f + a * d + b * c)
        return {m: p for m, p in out.items() if p != (0, 0)}

    def ref_scale(x, a, b):
        return ref_mul(x, {0: (Fraction(a), Fraction(b))})

    def ref_part(x, j):
        return {m: p[j] for m, p in x.items() if p[j]}

    rng = random.Random(60153)
    shared = [2**6 * 3**4, 7 * 11 * 13 * 17, 10**3]

    def rand_fraction():
        if rng.random() < 0.5:
            den = rng.randint(1, 10**6)
        else:
            den = rng.choice(shared) * rng.randint(1, 10**6 // 10**4)
        return Fraction(rng.randint(-10**6, 10**6), den)

    def rand_value(real=False):
        x = {}
        for m in rng.sample(range(-3, 4), rng.randint(1, 4)):
            p = (rand_fraction(), Fraction(0) if real or rng.random() < 0.3 else rand_fraction())
            if p != (0, 0):
                x[m] = p
        return x

    def build(x):
        return CScalar(Scalar(ref_part(x, 0)), Scalar(ref_part(x, 1)))

    def check(z, x):
        if type(z) is Scalar:
            assert z.terms == ref_part(x, 0) and not ref_part(x, 1)
            z = CScalar.coerce(z)
        assert z.re.terms == ref_part(x, 0) and z.im.terms == ref_part(x, 1)
        assert z == build(x) and hash(z) == hash(build(x))

    for _ in range(80):
        x, y, w = rand_value(), rand_value(), rand_value()
        a, b, c = build(x), build(y), build(w)
        check(a + b, ref_add(x, y))
        check(a - b, ref_add(x, ref_scale(y, -1, 0)))
        check(a * b, ref_mul(x, y))
        check(a.conj(), {m: (p, -q) for m, (p, q) in x.items()})
        check(a.times_i(), ref_scale(x, 0, 1))
        # exact cancellation: (a + b)(a - b) - (aa - bb) and a*b*c - c*(b*a)
        check((a + b) * (a - b) - (a * a - b * b) + a * b * c - c * (b * a), {})
        assert ((a + b) * (a - b) - (a * a - b * b)).is_zero()
        r, s = rand_value(real=True), rand_value(real=True)
        p, q = build(r).re, build(s).re
        check(p + q, ref_add(r, s))
        check(p - q, ref_add(r, ref_scale(s, -1, 0)))
        check(p * q, ref_mul(r, s))
        check(p * q - q * p, {})
        power = {0: (Fraction(1), Fraction(0))}
        for n in range(4):
            check(p**n, power)
            power = ref_mul(power, r)
        m, (num, _) = next(iter(r.items()))
        mono, inv = Scalar.pi(m, num), {-m: (1 / num, Fraction(0))}
        check(mono.inverse(), inv)
        check(mono**-3, ref_mul(ref_mul(inv, inv), inv))
        check(p / mono, ref_mul(r, inv))
