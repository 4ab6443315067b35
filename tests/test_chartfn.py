from fractions import Fraction
from math import comb

import pytest

from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.scalar import CScalar, Scalar

from conftest import random_cscalar, random_fraction, random_poly, random_trig

R2 = ChartSpace.euclidean(("x", "y"))
T2 = ChartSpace.torus(("x", "y"))


def test_polynomial_derivative():
    x = ChartFunction.variable(R2, "x")
    f = x * x
    assert f.derive("x") == x.scale(2)
    assert f.derive("y").is_zero()


def test_unknown_variable_errors():
    f = ChartFunction.variable(R2, "x")
    with pytest.raises(KeyError):
        f.derive("z")
    # a map key that is no source coordinate names a renaming that never happens
    with pytest.raises(KeyError):
        ChartFunction.fourier(T2, {"x": 1}).embed(T2, {"q": "y"})


def test_trig_derivative_carries_two_pi():
    # d/dx e^{2 pi i x} = 2 pi i e^{2 pi i x}, the 2 pi held as a Scalar pi-term
    mode = ChartFunction.fourier(T2, {"x": 1})
    expected = mode.scale(CScalar(0, Scalar.pi(1, 2)))
    assert mode.derive("x") == expected
    # independent variable
    ymode = ChartFunction.fourier(T2, {"y": 1})
    assert ymode.derive("x").is_zero()


def test_leibniz_rule_randomized(rng):
    for _ in range(50):
        f = random_poly(R2, rng) if rng.random() < 0.5 else None
        if f is None:
            f = random_trig(T2, rng)
            g = random_trig(T2, rng)
            var = "x"
        else:
            g = random_poly(R2, rng)
            var = "y"
        lhs = (f * g).derive(var)
        rhs = f.derive(var) * g + f * g.derive(var)
        assert lhs == rhs


def test_ring_axioms_randomized(rng):
    for _ in range(40):
        a = random_trig(T2, rng, real=False)
        b = random_trig(T2, rng, real=False)
        c = random_trig(T2, rng, real=False)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_frequency_forbidden_off_torus():
    with pytest.raises(ValueError):
        ChartFunction.fourier(R2, {"x": 1})
    # renaming a periodic coordinate onto an aperiodic one is refused too
    mixed = ChartSpace(("x", "y"), (False, True))
    with pytest.raises(ValueError, match="non-periodic"):
        ChartFunction.fourier(T2, {"x": 1}).embed(mixed, {})
    assert ChartFunction.fourier(T2, {"y": 1}).embed(mixed, {}).space == mixed
    with pytest.raises(ValueError, match="non-periodic"):
        ChartFunction.fourier(mixed.copies(1), {"y_1": 1}).embed(mixed, {"y_1": "x", "x_1": "y"})
    flipped = ChartSpace(("x", "y"), (True, False))
    with pytest.raises(ValueError, match="non-periodic"):
        ChartFunction.fourier(flipped, {"x": 1}).embed(flipped, {"x": "y"})


def test_malformed_terms_rejected():
    with pytest.raises(ValueError, match="negative"):
        ChartFunction(R2, {((-1, 0), (0, 0)): 1})
    with pytest.raises(ValueError, match="arity"):
        ChartFunction(R2, {((0,), (0,)): 1})


def test_reality_predicate():
    c = ChartFunction.cosine(T2, "x")
    s = ChartFunction.sine(T2, "y", 2)
    assert c.is_real() and s.is_real()
    assert (c * s + 3).is_real()
    assert not (c + ChartFunction.fourier(T2, {"x": 1})).is_real()


def test_mixed_terms_and_globality():
    x = ChartFunction.variable(T2, "x")  # lifted coordinate on the torus chart
    w = ChartFunction.cosine(T2, "x")
    mixed = x * w
    assert mixed.kind() == "mixed"
    assert w.is_global() and not mixed.is_global()
    with pytest.raises(ValueError):
        mixed.torus_mean()
    assert (w * w).torus_mean() == CScalar(Fraction(1, 2))


def test_shift_polynomial_and_trig():
    x = ChartFunction.variable(T2, "x")
    f = x * x
    g = f.shift({"x": Fraction(1)})  # (x+1)^2
    assert g == f + x.scale(2) + ChartFunction.one(T2)
    mode = ChartFunction.fourier(T2, {"x": 3})
    assert mode.shift({"x": Fraction(1)}) == mode  # integer shift is a period
    assert mode.shift({"x": Fraction(1, 3)}) == mode  # 3*(1/3) is a full period too
    with pytest.raises(ValueError):
        ChartFunction.fourier(T2, {"x": 1}).shift({"x": Fraction(1, 3)})  # irrational phase


def test_evaluate_on_quarter_grid():
    f = ChartFunction.cosine(T2, "x") + ChartFunction.variable(T2, "y")
    v = f.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 4)})
    assert v == CScalar(Scalar.rational(Fraction(-3, 4)))
    with pytest.raises(ValueError):
        f.evaluate({"x": Fraction(1, 3), "y": 0})


def reference_evaluate(f, point):
    """Term by term in Fractions: coefficient parts per pi power, times the
    monomial value, times the quarter phase looked up from the argument."""
    phases = {Fraction(0): (1, 0), Fraction(1, 4): (0, 1), Fraction(1, 2): (-1, 0), Fraction(3, 4): (0, -1)}
    re, im = {}, {}
    for (mon, freq), c in f.terms.items():
        w, arg = Fraction(1), Fraction(0)
        for name, e, k in zip(f.space.names, mon, freq):
            w *= Fraction(point[name]) ** e
            arg += k * Fraction(point[name])
        pr, pi = phases[arg % 1]
        for m in set(c.re.terms) | set(c.im.terms):
            a, b = c.re.terms.get(m, 0), c.im.terms.get(m, 0)
            re[m] = re.get(m, 0) + w * (a * pr - b * pi)
            im[m] = im.get(m, 0) + w * (a * pi + b * pr)
    return CScalar(Scalar(re), Scalar(im))


def test_evaluate_matches_fraction_reference(rng):
    quarter = [Fraction(k, 4) for k in range(-6, 7)]
    odd_quarter = [Fraction(k, 4) for k in (-5, -3, -1, 1, 3, 5)]
    for trial in range(60):
        scale = random_cscalar(rng)
        poly = random_poly(T2, rng).scale(scale)
        trig = random_trig(T2, rng, real=trial % 2 == 0).scale(scale)
        # a mode along x only, so y may take any denominator
        mixed = poly * ChartFunction.fourier(T2, {"x": rng.choice((-3, -1, 1, 2))}) + poly
        cases = [
            (poly, {"x": random_fraction(rng, 9, 7), "y": random_fraction(rng, 9, 7)}),
            (poly, {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}),
            (poly, {"x": Fraction(rng.randint(-9, 9), 3), "y": Fraction(rng.randint(-9, 9), 10)}),
            (trig, {"x": rng.choice(quarter), "y": rng.randint(-2, 2)}),
            (trig, {"x": rng.choice(odd_quarter), "y": Fraction(rng.choice((-1, 1)), 2)}),
            (poly * trig + trig, {"x": rng.choice(quarter), "y": rng.choice(quarter)}),
            (mixed, {"x": rng.choice(odd_quarter), "y": random_fraction(rng, 9, 7)}),
        ]
        for f, point in cases:
            assert f.evaluate(point) == reference_evaluate(f, point)
        # an irrational phase still raises, whatever else the point holds
        if not poly.is_zero():
            with pytest.raises(ValueError, match="irrational"):
                mixed.evaluate({"x": Fraction(1, 5), "y": Fraction(1, 3)})


def reference_shift(f, delta):
    """(u + d)^e expanded term by term in Fractions, each mode turned by the
    quarter phase of k.d looked up from its argument."""
    phases = {Fraction(0): (1, 0), Fraction(1, 4): (0, 1), Fraction(1, 2): (-1, 0), Fraction(3, 4): (0, -1)}
    dvec = [Fraction(delta.get(name, 0)) for name in f.space.names]
    out = {}
    for (mon, freq), c in f.terms.items():
        pr, pi = phases[sum(k * d for k, d in zip(freq, dvec)) % 1]
        expansion = {(): Fraction(1)}
        for e, d in zip(mon, dvec):
            expansion = {
                prefix + (r,): w * comb(e, r) * d ** (e - r)
                for prefix, w in expansion.items()
                for r in range(e + 1)
            }
        for mon2, w in expansion.items():
            parts = out.setdefault((mon2, freq), {})
            for m in set(c.re.terms) | set(c.im.terms):
                a, b = c.re.terms.get(m, 0), c.im.terms.get(m, 0)
                re, im = parts.get(m, (0, 0))
                parts[m] = (re + w * (a * pr - b * pi), im + w * (a * pi + b * pr))
    return ChartFunction(
        f.space,
        {
            key: CScalar(Scalar({m: re for m, (re, _) in parts.items()}),
                         Scalar({m: im for m, (_, im) in parts.items()}))
            for key, parts in out.items()
        },
    )


def test_shift_matches_fraction_reference(rng):
    integer_deltas = [
        {}, {"x": 0, "y": Fraction(0)}, {"x": -1}, {"y": -3}, {"x": 2, "y": -1},
        {"x": Fraction(-2), "y": 3},
    ]
    for trial in range(30):
        poly = random_poly(T2, rng).scale(random_cscalar(rng))
        trig = random_trig(T2, rng, real=trial % 2 == 0)
        for f in (poly, trig, poly * trig + poly):
            for delta in integer_deltas:
                assert f.shift(delta) == reference_shift(f, delta)
            quarter = {"x": Fraction(rng.randint(-7, 7), 4), "y": rng.randint(-2, 2)}
            assert f.shift(quarter) == reference_shift(f, quarter)
        loose = {"x": random_fraction(rng, 9, 7), "y": -2}
        assert poly.shift(loose) == reference_shift(poly, loose)
        assert poly.shift({"x": 0}) is poly


def test_identify_diagonal():
    pair = ChartSpace.torus(("x_1", "x_2"))
    phi = ChartFunction.variable(pair, "x_1") - ChartFunction.variable(pair, "x_2")
    assert phi.embed(pair, {"x_1": "x_2"}).is_zero()


def test_embed_into_pair_space():
    pair = T2.copies(2)
    f = ChartFunction.variable(T2, "x") * ChartFunction.cosine(T2, "y")
    left = f.embed(pair, T2.copy_map(1))
    assert left.space == pair
    assert not left.is_zero()
    # embedding then identifying copies recovers a consistent diagonal value
    diag = left.embed(pair, {f"{n}_1": f"{n}_2" for n in T2.names})
    assert diag == f.embed(pair, T2.copy_map(2))
