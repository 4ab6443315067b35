from fractions import Fraction

import pytest

from starbundle.cech import constant_two_form
from starbundle.chartfn import ChartFunction
from starbundle.cohomology import (
    CohomologyClass,
    bernoulli_numbers,
    exp_twist,
    todd_class,
    todd_of_line,
    todd_series_coefficients,
)
from starbundle.forms import DifferentialForm
from starbundle.index import (
    EllipticSymbolClass,
    check_homotopy_invariance,
    check_log_multiplicativity,
    check_tensor_consistency,
    compose_symbols,
    twisted_index,
)
from starbundle.manifold import Sphere2, Torus
from starbundle.scalar import Scalar

T2 = Torus(2)
T4 = Torus(4)
S2 = Sphere2()


def test_bernoulli_numbers():
    assert bernoulli_numbers(4) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
    ]


def test_todd_series_against_sympy_oracle():
    import sympy

    x = sympy.symbols("x")
    series = sympy.series(x / (1 - sympy.exp(-x)), x, 0, 6).removeO()
    got = todd_series_coefficients(5)
    for k, coeff in enumerate(got):
        assert sympy.nsimplify(series.coeff(x, k)) == sympy.Rational(
            coeff.numerator, coeff.denominator
        )


def test_todd_classes():
    assert todd_class(T2) == CohomologyClass.unit(T2)
    assert todd_class(T4) == CohomologyClass.unit(T4)
    # the sphere factors cancel below degree 4: executable derivation
    assert todd_class(S2) == CohomologyClass.unit(S2)
    # a single line-bundle factor alone does curve: Td(O(2)) = 1 + e/2
    euler = DifferentialForm.area(S2, 2)
    td_line = todd_of_line(euler)
    assert td_line.component(2) == DifferentialForm.area(S2, 1)


def test_exp_twist_t2():
    assert exp_twist(constant_two_form(T2, 0)) == CohomologyClass.unit(T2)
    theta = Scalar.rational(Fraction(3, 7))
    cls = exp_twist(constant_two_form(T2, theta))
    vol = DifferentialForm.basis(T2, "dx", "dy")
    assert cls.component(0) == DifferentialForm.constant(T2, 1)
    assert cls.component(2) == vol.scale(theta * Scalar.pi(-1, Fraction(1, 2)))


def test_exp_twist_t4_cross_term():
    vol1 = DifferentialForm.basis(T4, "dx1", "dy1")
    vol2 = DifferentialForm.basis(T4, "dx2", "dy2")
    t1, t2 = Scalar.rational(3), Scalar.rational(5)
    omega = vol1.scale(t1) + vol2.scale(t2)
    cls = exp_twist(omega)
    top = cls.component(4)
    vol = DifferentialForm.basis(T4, "dx1", "dy1", "dx2", "dy2")
    expected = vol.scale(t1 * t2 * Scalar.pi(-2, Fraction(1, 4)))
    assert top == expected


def test_exp_twist_rejects_bad_inputs():
    with pytest.raises(ValueError):
        exp_twist(DifferentialForm.basis(T2, "dx"))


def test_twisted_index_t2_closed_form():
    # ind = e + d * theta / (2 pi), exactly, for assorted rational data
    cases = [
        (2, 5, Scalar.zero()),
        (1, 0, Scalar.pi(1, 2)),
        (2, 5, Scalar.rational(Fraction(3, 7))),
        (-3, 7, Scalar.pi(1, Fraction(1, 3))),
    ]
    for d, e, theta in cases:
        a = EllipticSymbolClass.on_torus2(T2, d, e)
        result = twisted_index(a, constant_two_form(T2, theta), T2)
        expected = Scalar.rational(e) + Scalar.rational(d) * theta * Scalar.pi(
            -1, Fraction(1, 2)
        )
        assert result.value == expected


def test_untwisted_integer_case():
    a = EllipticSymbolClass.on_torus2(T2, 2, 5)
    result = twisted_index(a, None, T2)
    assert result.value == Scalar.rational(5)
    assert result.is_integer
    zero = EllipticSymbolClass(1, 1, CohomologyClass.zero(T2))
    assert twisted_index(zero, None, T2).value.is_zero()


def test_twisted_index_by_degree_decomposition():
    a = EllipticSymbolClass.on_torus2(T2, 2, 5)
    theta = Scalar.rational(Fraction(3, 7))
    result = twisted_index(a, constant_two_form(T2, theta), T2)
    parts = dict(result.by_degree)
    assert parts[0] == Scalar.rational(2) * theta * Scalar.pi(-1, Fraction(1, 2))
    assert parts[2] == Scalar.rational(5)


def test_twisted_index_sphere():
    area = DifferentialForm.area(S2, 1)
    gamma = CohomologyClass(S2, (DifferentialForm.constant(S2, 3), area.scale(Scalar.rational(4))))
    a = EllipticSymbolClass(2, 2, gamma)
    omega = area.scale(Scalar.pi(1, 2))  # class integral 2*pi -> exp adds 1 unit
    result = twisted_index(a, omega, S2)
    assert result.value == Scalar.rational(7)


def test_log_multiplicativity():
    # identity class composes trivially
    ident = EllipticSymbolClass.identity(T2)
    a = EllipticSymbolClass.on_torus2(T2, 2, 3)
    report = check_log_multiplicativity(ident, a, None, T2)
    assert report.passed
    # winding classes: integer indices add at omega = 0
    w1 = EllipticSymbolClass.on_torus2(T2, 0, 4)
    w2 = EllipticSymbolClass.on_torus2(T2, 0, -1)
    assert check_log_multiplicativity(w1, w2, None, T2).passed
    lhs = twisted_index(compose_symbols(w1, w2), None, T2)
    assert lhs.value == Scalar.rational(3)
    # real indices add for nonzero twists
    omega = constant_two_form(T2, Fraction(3, 7))
    a1 = EllipticSymbolClass.on_torus2(T2, 2, 5)
    a2 = EllipticSymbolClass.on_torus2(T2, -1, 1)
    assert check_log_multiplicativity(a1, a2, omega, T2).passed


def test_compose_rank_chain_guard():
    a = EllipticSymbolClass(1, 1, CohomologyClass.zero(T2))
    b = EllipticSymbolClass(2, 2, CohomologyClass.zero(T2))
    with pytest.raises(ValueError):
        compose_symbols(a, b)


def test_homotopy_invariance():
    a = EllipticSymbolClass.on_torus2(T2, 2, 5)
    omega = constant_two_form(T2, Fraction(3, 7))
    zero_witness = DifferentialForm.zero(T2)
    assert check_homotopy_invariance(a, omega, T2, zero_witness).passed
    # omega -> omega + d(sin(2 pi x) dy): bitwise identical index
    witness = DifferentialForm(T2, {(1,): ChartFunction.sine(T2.space, "x")})
    report = check_homotopy_invariance(a, omega, T2, witness, target="omega")
    assert report.passed
    # perturb the top-degree gamma representative by d(f dy)
    f = ChartFunction.cosine(T2.space, "x", 2)
    witness2 = DifferentialForm(T2, {(1,): f})
    report2 = check_homotopy_invariance(a, omega, T2, witness2, target=2)
    assert report2.passed


def test_homotopy_invariance_rejects_bad_witness():
    a = EllipticSymbolClass.on_torus2(T2, 2, 5)
    omega = constant_two_form(T2, Fraction(3, 7))
    bad = DifferentialForm.from_function(T2, ChartFunction.cosine(T2.space, "x"))
    with pytest.raises(ValueError):
        check_homotopy_invariance(a, omega, T2, bad, target="omega")


def test_tensor_consistency():
    for m, (d, e) in [(0, (1, 0)), (1, (1, 0)), (3, (2, 5))]:
        a = EllipticSymbolClass.on_torus2(T2, d, e)
        report = check_tensor_consistency(a, m, T2)
        assert report.passed
    with pytest.raises(ValueError):
        check_tensor_consistency(EllipticSymbolClass.on_torus2(T2, 1, 0), Fraction(1, 2), T2)


def test_index_linearity_in_gamma():
    # direct sums add
    a1 = EllipticSymbolClass.on_torus2(T2, 2, 5)
    a2 = EllipticSymbolClass.on_torus2(T2, 1, -2)
    omega = constant_two_form(T2, Fraction(1, 3))
    direct_sum = EllipticSymbolClass(
        a1.rank_e + a2.rank_e, a1.rank_f + a2.rank_f, a1.gamma + a2.gamma
    )
    assert (
        twisted_index(direct_sum, omega, T2).value
        == twisted_index(a1, omega, T2).value + twisted_index(a2, omega, T2).value
    )


def test_unsupported_manifold_rejected():
    with pytest.raises(ValueError):
        twisted_index(EllipticSymbolClass.identity(Torus(6)), None, Torus(6))


def test_symbol_class_validation():
    with pytest.raises(ValueError):
        EllipticSymbolClass(1, 2, CohomologyClass.zero(T2))
    bad_gamma = CohomologyClass(
        T2, (DifferentialForm.constant(T2, Scalar.rational(Fraction(1, 2))),)
    )
    with pytest.raises(ValueError):
        EllipticSymbolClass(1, 1, bad_gamma)
