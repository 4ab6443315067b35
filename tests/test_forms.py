from fractions import Fraction

import pytest

from starbundle.chartfn import ChartFunction
from starbundle.forms import DifferentialForm
from starbundle.manifold import EuclideanChart, Sphere2, Torus
from starbundle.scalar import Scalar

from conftest import random_form, random_trig

T2 = Torus(2)
R2 = EuclideanChart(("x", "y"))
S2 = Sphere2()


def fn(manifold, name):
    return ChartFunction.variable(manifold.space, name)


def test_exterior_d_basic():
    # d(x dy) = dx ^ dy
    w = DifferentialForm(R2, {(1,): fn(R2, "x")})
    assert w.exterior_d() == DifferentialForm.basis(R2, "dx", "dy")
    # linearity with a Scalar factor
    theta = Scalar.rational(Fraction(3, 7))
    w2 = w.scale(theta)
    assert w2.exterior_d() == DifferentialForm.basis(R2, "dx", "dy").scale(theta)


def test_exterior_d_coordinate_formula():
    # d(f dx + g dy) = (dg/dx - df/dy) dx^dy
    f = fn(R2, "x") * fn(R2, "y")
    g = fn(R2, "x") ** 3
    w = DifferentialForm(R2, {(0,): f, (1,): g})
    expected_coeff = g.derive("x") - f.derive("y")
    assert w.exterior_d() == DifferentialForm(R2, {(0, 1): expected_coeff})


def test_d_squared_zero_randomized(rng):
    for manifold in (R2, T2, Torus(4)):
        for degree in range(manifold.dim):
            for _ in range(20):
                w = random_form(manifold, degree, rng, trig=(manifold != R2))
                assert w.exterior_d().exterior_d().is_zero()


def test_wedge_antisymmetry():
    dx = DifferentialForm.basis(T2, "dx")
    dy = DifferentialForm.basis(T2, "dy")
    assert dx.wedge(dx).is_zero()
    assert (dx.wedge(dy) + dy.wedge(dx)).is_zero()


def test_wedge_graded_commutativity(rng):
    for da, db in [(0, 1), (1, 1), (1, 2), (2, 2)]:
        a = random_form(Torus(4), da, rng, trig=True)
        b = random_form(Torus(4), db, rng, trig=True)
        sign = (-1) ** (da * db)
        rhs = b.wedge(a)
        assert a.wedge(b) == (rhs if sign == 1 else -rhs)


def test_wedge_mixed_degree_truncation():
    # (1 + theta dx^dy) ^ (d + e dx^dy) = d + (e + d*theta) dx^dy on T^2
    theta = Scalar.rational(Fraction(3, 7))
    d_val, e_val = Scalar.rational(2), Scalar.rational(5)
    vol = DifferentialForm.basis(T2, "dx", "dy")
    a = DifferentialForm.constant(T2, 1) + vol.scale(theta)
    b = DifferentialForm.constant(T2, d_val) + vol.scale(e_val)
    expected = DifferentialForm.constant(T2, d_val) + vol.scale(e_val + d_val * theta)
    assert a.wedge(b) == expected


def test_wedge_manifold_mismatch():
    with pytest.raises(ValueError):
        DifferentialForm.basis(T2, "dx").wedge(DifferentialForm.basis(R2, "dx"))


def test_integrate_torus():
    vol = DifferentialForm.basis(T2, "dx", "dy")
    assert vol.integrate() == Scalar.one()
    osc = vol.multiply_function(ChartFunction.fourier(T2.space, {"x": 1}))
    assert osc.integrate() == Scalar.zero()


def test_integrate_requires_top_degree_and_compactness():
    with pytest.raises(ValueError):
        DifferentialForm.basis(T2, "dx").integrate()
    with pytest.raises(ValueError):
        DifferentialForm.basis(R2, "dx", "dy").integrate()


def test_stokes_randomized(rng):
    # integrate(d(w)) == 0 for random degree dim-1 trig forms on compact tori
    for manifold in (T2, Torus(4)):
        for _ in range(25):
            w = random_form(manifold, manifold.dim - 1, rng, trig=True)
            assert w.exterior_d().integrate() == Scalar.zero()
    # the spec's worked case: any trig f, integral of d(f dy) vanishes
    f = random_trig(T2.space, rng)
    w = DifferentialForm(T2, {(1,): f})
    assert w.exterior_d().integrate() == Scalar.zero()


def test_sphere_restricted_algebra():
    one = DifferentialForm.constant(S2, 1)
    area = DifferentialForm.area(S2, Fraction(3, 2))
    assert area.integrate() == Scalar.rational(Fraction(3, 2))
    assert one.exterior_d().is_zero()
    assert area.exterior_d().is_zero()
    assert one.wedge(area) == area
    assert area.wedge(area).is_zero()
    with pytest.raises(ValueError):
        DifferentialForm(S2, {(0,): ChartFunction.one(S2.space)})


def test_shift_translates_coefficients():
    w = DifferentialForm(T2, {(1,): fn(T2, "x")})
    shifted = w.shift({"x": Fraction(2)})
    assert shifted == DifferentialForm(
        T2, {(1,): fn(T2, "x") + ChartFunction.constant(T2.space, 2)}
    )
