import sys
from fractions import Fraction

import pytest

from starbundle import index
from starbundle.bundle import build_local_line_bundle
from starbundle.cech import constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cohomology import (
    CohomologyClass,
    bernoulli_numbers,
    exp_twist,
    todd_class,
    todd_of_line,
    todd_series_coefficients,
)
from starbundle.cover import GoodCover
from starbundle.forms import DifferentialForm
from starbundle.index import (
    EllipticSymbolClass,
    check_homotopy_invariance,
    check_tensor_consistency,
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


def glued_bundle(theta):
    return build_local_line_bundle(solve_cech(constant_two_form(T2, theta), GoodCover.grid(T2, 3)))


def test_tensor_consistency():
    # gamma = 2 + 5 vol: twisted and honest sides both read 5 + 2 c1
    a = EllipticSymbolClass.on_torus2(T2, 2, 5)
    for theta, c1, both in [(Scalar.pi(1, 2), "1", "7"), (Scalar.pi(1, -4), "-2", "1")]:
        report = check_tensor_consistency(a, glued_bundle(theta))
        assert report.passed and report.checked == 2
        assert dict(report.metrics) == {"c1": c1, "twisted": both, "honest": both}
    # a class that is not integral has no honest bundle, though both sides agree
    cases = [
        (Scalar.rational(Fraction(3, 7)), "3/14*pi^-1"),
        (Scalar.pi(1, Fraction(1, 3)), "1/6"),
    ]
    for theta, c1 in cases:
        report = check_tensor_consistency(a, glued_bundle(theta))
        assert report.failures == ({"identity": "integral_c1", "c1": c1},)
        assert report.metrics["twisted"] == report.metrics["honest"]


def test_tensor_consistency_catches_a_wrong_twist(monkeypatch):
    # exp(omega / pi) in place of exp(omega / 2*pi): the twisted side reads
    # 5 + 2 * 2 = 9 against the honest 7 at c1 = 1
    real = index.exp_twist
    monkeypatch.setattr(index, "exp_twist", lambda omega: real(omega.scale(2)))
    a = EllipticSymbolClass.on_torus2(T2, 2, 5)
    report = check_tensor_consistency(a, glued_bundle(Scalar.pi(1, 2)))
    assert report.failures == (
        {"identity": "twisted_equals_honest", "c1": "1", "twisted": "9", "honest": "7"},
    )


def test_tensor_consistency_honest_side_uses_no_twist_formula(monkeypatch):
    calls = []
    inside = []
    real_twisted = index.twisted_index

    def staged_twisted(*args):
        inside.append(True)
        try:
            return real_twisted(*args)
        finally:
            inside.pop()

    def counted(name, real):
        def call(*args):
            calls.append((name, bool(inside)))
            return real(*args)

        return call

    modules = [m for n, m in sys.modules.items() if n.startswith("starbundle")]
    for name in ("exp_twist", "todd_class"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(index, "twisted_index", staged_twisted)
    bundle = glued_bundle(Scalar.pi(1, 2))
    assert check_tensor_consistency(EllipticSymbolClass.on_torus2(T2, 2, 5), bundle).passed
    assert sorted(calls) == [("exp_twist", True), ("todd_class", True)]


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
