import math
import random
from fractions import Fraction

import pytest

from starbundle import star
from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.manifold import Torus
from starbundle.poisson import PoissonStructure
from starbundle.scalar import (
    CScalar,
    Scalar,
    _add_into,
    _cs,
    _lincomb,
    _mul_into,
    _reduce,
    _scaled,
    parse_scalar,
)
from starbundle.star import PureStarProduct

from conftest import random_cscalar, random_poly, random_scalar, random_trig


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


# the reference: every value is a dict {pi power: (re, im)} of Fractions
# with no (0, 0) entry


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


def ref_of(den, num):
    """Integer numerators over den as the reference's dict."""
    return {m: (Fraction(a, den), Fraction(b, den)) for m, (a, b) in num.items() if a or b}


def test_matches_fraction_reference():
    """The integer-numerator kernel against the dict-of-Fraction-pairs
    reference, through the public operators."""

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


def test_numerator_helpers_match_fraction_reference():
    """``_add_into``, ``_scaled`` and ``_mul_into`` on bare integer
    numerators, real and complex, zero entries included."""
    rng = random.Random(2801)

    def rand_num(real=False):
        return {
            m: (rng.randint(-30, 30), 0 if real else rng.randint(-30, 30))
            for m in rng.sample(range(-3, 4), rng.randint(1, 4))
        }

    for _ in range(100):
        x, y, acc = rand_num(rng.random() < 0.4), rand_num(rng.random() < 0.4), rand_num()
        got = dict(acc)
        _mul_into(got, x, y)
        assert ref_of(1, got) == ref_add(ref_of(1, acc), ref_mul(ref_of(1, x), ref_of(1, y)))
        scale = rng.choice([-7, -1, 0, 2, 12])
        got = dict(acc)
        _add_into(got, x, scale)
        assert ref_of(1, got) == ref_add(ref_of(1, acc), ref_scale(ref_of(1, x), scale, 0))
        assert ref_of(1, _scaled(x, scale)) == ref_scale(ref_of(1, x), scale, 0)
        assert _scaled(x, 1) is x


def test_lincomb_matches_fraction_reference():
    """``_lincomb`` sums w * i**t * value over mixed denominators, any turn
    and negative weights, into one canonical value; parts that cancel give
    the canonical zero, {} over 1."""
    rng = random.Random(2802)
    turns = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # i**t

    def parts_of(values):
        return [(c._den, c._num, rng.randint(-6, 6), rng.randrange(4)) for c in values]

    for _ in range(60):
        values = [random_cscalar(rng) for _ in range(rng.randint(1, 5))]
        values.append(CScalar(Scalar.pi(2, Fraction(rng.randint(-9, 9), rng.choice([7, 12, 35])))))
        parts = parts_of(values)
        want = {}
        for den, num, w, t in parts:
            want = ref_add(want, ref_scale(ref_of(den, num), w * turns[t][0], w * turns[t][1]))
        got = _lincomb(parts)
        assert ref_of(got._den, got._num) == want
        re, im = ({m: p[j] for m, p in want.items() if p[j]} for j in (0, 1))
        assert got == CScalar(Scalar(re), Scalar(im))
        # the same parts negated, by weight or by two turns, cancel exactly
        negated = [(den, num, -w, t) for den, num, w, t in parts]
        turned = [(den, num, w, (t + 2) % 4) for den, num, w, t in parts]
        for cancel in (negated, turned):
            zero = _lincomb(parts + cancel)
            assert zero.is_zero() and (zero._den, zero._num) == (1, {})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pair_products_are_the_public_products(seed):
    """Every row entry of the star kernel's pair table, reduced over the
    table's den, is the public product a_t * b_u, for trig, polynomial and
    pi-scaled operands with mixed denominators."""
    rng = random.Random(seed)
    space = ChartSpace.torus(("x", "y"))
    work = star._Work(PureStarProduct(PoissonStructure.standard(space, Scalar.pi())))
    trig = random_trig(space, rng, real=False)
    poly = random_poly(space, rng)
    weight = CScalar(Fraction(2, 9), Scalar.pi(2, Fraction(1, 4)))
    scaled = trig * Scalar.pi(-1, Fraction(5, 6)) + poly * weight
    for a in (trig, poly, scaled):
        for b in (trig, poly, scaled):
            den, rows = work.pair_products(a, b)
            assert work.pair_products(a, b)[1] is rows  # formed once per (a, b)
            assert [len(row) for row in rows] == [len(b.terms)] * len(a.terms)
            for row, x in zip(rows, a.terms.values()):
                for num, y in zip(row, b.terms.values()):
                    assert _reduce(CScalar, den, num) == x * y
