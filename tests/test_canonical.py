"""Every ring operation returns values in the canonical form that the
validating constructors produce: no zero coefficient, integer keys, and an
empty term dict exactly for zero."""

from fractions import Fraction

from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.poisson import PoissonStructure
from starbundle.scalar import CScalar, Scalar
from starbundle.star import PureStarProduct

from conftest import random_cscalar, random_fraction, random_poly, random_scalar, random_trig

R2 = ChartSpace.euclidean(("x", "y"))
T2 = ChartSpace.torus(("x", "y"))


def check_scalar(s):
    terms = s.terms
    assert type(s) is Scalar
    assert all(type(m) is int for m in terms)
    assert all(type(q) is Fraction and q != 0 for q in terms.values())
    rebuilt = Scalar(terms)
    assert rebuilt == s and rebuilt.terms == terms
    assert s.is_zero() == (not terms)


def check_cscalar(z):
    assert type(z) is CScalar
    check_scalar(z.re)
    check_scalar(z.im)


def check_chartfn(f):
    terms = f.terms
    for (mon, freq), c in terms.items():
        assert len(mon) == len(freq) == f.space.dim
        assert all(type(e) is int and e >= 0 for e in mon)
        assert all(type(k) is int for k in freq)
        assert all(per or k == 0 for k, per in zip(freq, f.space.periodic))
        check_cscalar(c)
        assert not c.is_zero()
    rebuilt = ChartFunction(f.space, terms)
    assert rebuilt == f and rebuilt.terms == terms
    assert f.is_zero() == (not terms)


def test_scalar_operations_stay_canonical(rng):
    x = Scalar.pi()
    for _ in range(150):
        a, b = random_scalar(rng), random_scalar(rng)
        for s in (a + b, a - b, -a, a * b, a**0, a**1, a**3, a + 1, 2 - a, a * Fraction(2, 3)):
            check_scalar(s)
        for zero in (a + (-a), a - a, a * 0, a * Scalar.zero()):
            check_scalar(zero)
            assert zero.is_zero()
        q = random_fraction(rng) or Fraction(1)
        mono = Scalar.pi(rng.randint(-2, 2), q)
        for s in (mono.inverse(), mono**-2, mono**0, mono**5, a / mono):
            check_scalar(s)
    cancel = (x + 1) * (x - 1) - x * x + 1
    check_scalar(cancel)
    assert cancel.is_zero()


def test_cscalar_operations_stay_canonical(rng):
    i = CScalar.i()
    for _ in range(150):
        a, b = random_cscalar(rng), random_cscalar(rng)
        for z in (a + b, a - b, -a, a * b, a * b.re, a.conj(), a.times_i(), a * a.conj()):
            check_cscalar(z)
        for zero in (a + (-a), a - a, a * 0, a * CScalar.zero()):
            check_cscalar(zero)
            assert zero.is_zero()
    for zero in (i * i + 1, i * i + CScalar.one(), i.times_i() + 1):
        check_cscalar(zero)
        assert zero.is_zero()


def test_chartfn_operations_stay_canonical(rng):
    x = ChartFunction.variable(R2, "x")
    star = PureStarProduct(PoissonStructure.standard(T2, Scalar.pi()))
    for _ in range(25):
        for space, make in ((R2, random_poly), (T2, random_trig), (T2, random_poly)):
            f, g = make(space, rng), make(space, rng)
            c = random_cscalar(rng)
            results = [
                f + g, f - g, -f, f * g, f**2, f.scale(c), f.scale(0), f + (-f), f - f,
                f.derive("x"), f.derive("y"), f.conj(),
                f.shift({"x": 1, "y": -2}), f.embed(space.copies(2), space.copy_map(2)),
            ]
            if space is R2:
                results.append(f.shift({"x": Fraction(1, 3), "y": random_fraction(rng)}))
            pair = f.embed(space.copies(2), space.copy_map(1)) * g.embed(
                space.copies(2), space.copy_map(2)
            )
            results += [
                pair.embed(pair.space, {"x_1": "x_2"}),
                pair.embed(pair.space, {"y_2": "y_1"}),
            ]
            if make is random_trig:
                results += star.multiply(f, g, 3).coeffs
            for h in results:
                check_chartfn(h)
            for zero in (f + (-f), f - f, f.scale(0), (f - f).derive("x")):
                assert zero.is_zero()
    cancel = (x + 1) * (x - 1) - x * x + 1
    check_chartfn(cancel)
    assert cancel.is_zero()
    mode = ChartFunction.fourier(T2, {"x": 1}, CScalar.i())
    check_chartfn(mode * mode.conj() - 1 + mode.shift({"x": Fraction(1, 2)}) + mode)
    # e_(1,0) e_(0,1) and -e_(2,1) e_(-1,0) share k + l = (1,1) and k.Pi.l = pi,
    # so the star product has no (1,1) mode at any order
    a = ChartFunction(T2, {((0, 0), (1, 0)): 1, ((0, 0), (2, 1)): 1})
    b = ChartFunction(T2, {((0, 0), (0, 1)): 1, ((0, 0), (-1, 0)): -1})
    for c in star.multiply(a, b, 4).coeffs:
        check_chartfn(c)
        assert ((0, 0), (1, 1)) not in c.terms
    assert star.multiply(a, b, 4).coefficient(1).terms

