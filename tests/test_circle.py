from fractions import Fraction

import pytest

from starbundle.chartfn import ChartFunction
from starbundle.circle import (
    LocalCircleFunction,
    RealAdditiveFunction,
    check_circle_cocycle,
    h1_class,
    one_form_from_circle,
    twist_by_additive,
)
from starbundle.forms import DifferentialForm
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

S1 = Torus(1)
T2 = Torus(2)


def test_integer_slope_passes():
    a = LocalCircleFunction.from_slopes(S1, [3])
    assert check_circle_cocycle(a).passed


def test_zero_phase_passes():
    a = LocalCircleFunction(S1, ChartFunction.zero(S1.space.copies(2)))
    assert check_circle_cocycle(a).passed
    assert one_form_from_circle(a).is_zero()
    assert h1_class(a) == (Scalar.zero(),)


def test_product_phase_fails_with_nonconstant_defect():
    pair = S1.space.copies(2)
    phi = ChartFunction.variable(pair, "x_1") * ChartFunction.variable(pair, "x_2")
    a = LocalCircleFunction(S1, phi)
    report = check_circle_cocycle(a)
    assert not report.passed
    witnesses = {w["identity"]: w["detail"] for w in report.failures}
    assert "nonconstant" in witnesses["cocycle-defect"]


def test_one_form_integer_slope():
    m = 4
    a = LocalCircleFunction.from_slopes(S1, [m])
    alpha = one_form_from_circle(a)
    assert alpha == DifferentialForm.basis(S1, "dx").scale(Scalar.rational(m))
    assert h1_class(a) == (Scalar.rational(m),)


def test_one_form_nonintegral_period():
    c = Fraction(1, 3)
    a = LocalCircleFunction.from_slopes(S1, [c])
    assert check_circle_cocycle(a).passed
    alpha = one_form_from_circle(a)
    assert alpha.is_closed()
    (period,) = h1_class(a)
    assert period == Scalar.rational(c)
    assert not period.is_integer()  # not globally a(x)a(y)^{-1}


def test_torus_two_dimensional_class():
    a = LocalCircleFunction.from_slopes(T2, [Fraction(2), Fraction(-1, 2)])
    assert check_circle_cocycle(a).passed
    assert h1_class(a) == (Scalar.rational(2), Scalar.rational(Fraction(-1, 2)))


def test_one_form_requires_cocycle():
    pair = S1.space.copies(2)
    phi = ChartFunction.variable(pair, "x_1") * ChartFunction.variable(pair, "x_2")
    with pytest.raises(ValueError):
        one_form_from_circle(LocalCircleFunction(S1, phi))


def test_additive_twist_shifts_class_by_beta_periods():
    a = LocalCircleFunction.from_slopes(S1, [Fraction(1, 3)])
    lam = Fraction(5, 7)
    beta = RealAdditiveFunction.from_slopes(S1, [lam])
    assert beta.periods() == (Scalar.rational(lam),)
    twisted = twist_by_additive(a, beta)
    assert check_circle_cocycle(twisted).passed
    # derived oracle: the period integral is the total slope
    assert h1_class(twisted) == (Scalar.rational(Fraction(1, 3) + lam),)
    # zero-period beta leaves the class invariant
    zero_beta = RealAdditiveFunction.from_slopes(S1, [0])
    assert h1_class(twist_by_additive(a, zero_beta)) == h1_class(a)


def test_additive_function_rejects_bad_candidates():
    pair = S1.space.copies(2)
    x1 = ChartFunction.variable(pair, "x_1")
    x2 = ChartFunction.variable(pair, "x_2")
    # additive but not well-defined on M^2: lattice shift leaves 2(x-y)
    with pytest.raises(ValueError):
        RealAdditiveFunction(S1, x1 * x1 - x2 * x2)
    # well-defined-looking but not additive
    with pytest.raises(ValueError):
        RealAdditiveFunction(S1, (x1 - x2) * (x1 - x2))
    # complex phases are not real additive functions
    from starbundle.scalar import CScalar

    with pytest.raises(ValueError):
        RealAdditiveFunction(S1, (x1 - x2).scale(CScalar(0, 1)))
