"""Malformed calls at the public boundaries fail with a named error.

Each row is (id, call, exception type, message fragment).  A call outside
the supported family must raise the named type with a message that says
what was wrong, never return a wrong answer or end in an unrelated error.
"""

from fractions import Fraction

import pytest

from starbundle.berezin import BerezinMatrix, CP1Function, commutator_decay
from starbundle.bundle import BundleError, LocalLineBundle, build_local_line_bundle
from starbundle.cech import CechConnectionData, constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.cohomology import CohomologyClass
from starbundle.cover import GoodCover, Rect
from starbundle.forms import DifferentialForm
from starbundle.gluing import (
    GluingError,
    PartitionOfUnity,
    chern_class,
    glue_multiplicative_connection,
)
from starbundle.gauge import ConstCoeffOperator, GaugeOperator, gauge_twist
from starbundle.hardy import is_elliptic, toeplitz_index, winding_number
from starbundle.index import (
    EllipticSymbolClass,
    check_homotopy_invariance,
    check_tensor_consistency,
    twisted_index,
)
from starbundle.manifold import Sphere2, Torus
from starbundle.poisson import PoissonStructure
from starbundle.scalar import Scalar
from starbundle.series import FormalSeries
from starbundle.star import PureStarProduct, check_associativity, star_trace

T2 = Torus(2)
X = ChartFunction.variable(T2.space, "x")
R2 = ChartSpace.euclidean(("x", "y"))
U = ChartFunction.variable(R2, "x")
S2 = PureStarProduct(PoissonStructure.standard(R2))
T1 = Torus(1)
Z = ChartFunction.fourier(T1.space, {"x": 1})


def glue_tampered():
    """Glue over a datum whose transition phi_01 gained a y term."""
    cover = GoodCover.grid(T2, 3)
    data = solve_cech(constant_two_form(T2, Fraction(1, 3)), cover)
    transitions = dict(data.transitions)
    transitions[(0, 1)] = transitions[(0, 1)] + ChartFunction.variable(T2.space, "y")
    bad = CechConnectionData(cover, data.omega, data.alphas, transitions, data.triple_constants)
    return glue_multiplicative_connection(LocalLineBundle(bad), PartitionOfUnity.for_grid(cover))


def drop_primitive(chart):
    """Solved descent data with one chart's primitive alpha left out."""
    data = solve_cech(constant_two_form(T2, Fraction(1, 3)), GoodCover.grid(T2, 3))
    alphas = {i: a for i, a in data.alphas.items() if i != chart}
    return CechConnectionData(
        data.cover, data.omega, alphas, data.transitions, data.triple_constants
    )


def edit_datum(transitions=(), constants=None):
    """Solved descent data with the given transitions dropped and, if
    given, its triple constants edited in place by ``constants``."""
    data = solve_cech(constant_two_form(T2, Fraction(3, 7)), GoodCover.grid(T2, 3))
    phis = {pair: phi for pair, phi in data.transitions.items() if pair not in transitions}
    consts = dict(data.triple_constants)
    if constants is not None:
        constants(consts)
    return CechConnectionData(data.cover, data.omega, data.alphas, phis, consts)


def chern_class_foreign_connection():
    """c1 of the theta = 2*pi bundle, asked with a connection glued on theta = pi/3."""
    cover = GoodCover.grid(T2, 3)

    def bundle(theta):
        return build_local_line_bundle(solve_cech(constant_two_form(T2, theta), cover))

    partition = PartitionOfUnity.for_grid(cover)
    foreign = glue_multiplicative_connection(bundle(Scalar.pi(1, Fraction(1, 3))), partition)
    return chern_class(bundle(Scalar.pi(1, 2)), foreign)


def chern_class_of(argument):
    """c1 with ``argument`` in the bundle's place ("connection") or in the
    connection's ("bundle"), on the theta = pi/3 bundle of the 3-grid."""
    cover = GoodCover.grid(T2, 3)
    bundle = build_local_line_bundle(
        solve_cech(constant_two_form(T2, Scalar.pi(1, Fraction(1, 3))), cover)
    )
    if argument == "bundle":
        return chern_class(bundle, bundle)
    connection = glue_multiplicative_connection(bundle, PartitionOfUnity.for_grid(cover))
    return chern_class(connection)


CASES = [
    (
        "chartfn-shift-unknown-key",
        lambda: X.shift({"q": Fraction(1)}),
        KeyError,
        "unknown coordinate 'q'",
    ),
    (
        "form-shift-unknown-key",
        lambda: DifferentialForm.basis(T2, "dx").shift({"q": Fraction(1)}),
        KeyError,
        "unknown coordinate 'q'",
    ),
    (
        "zero-form-shift-unknown-key",
        lambda: DifferentialForm.zero(T2).shift({"q": Fraction(1)}),
        KeyError,
        "unknown coordinate 'q'",
    ),
    (
        "chartfn-evaluate-missing-coordinate",
        lambda: X.evaluate({"y": 0}),
        KeyError,
        "no coordinate 'x' of chart ('x', 'y')",
    ),
    (
        "chartfn-evaluate-float-coordinate",
        lambda: X.evaluate({"x": 0.5, "y": 0}),
        TypeError,
        "coordinate 'x' takes an int or a Fraction, not float",
    ),
    (
        "chartfn-evaluate-unknown-key",
        lambda: X.evaluate({"x": 1, "y": 0, "q": 3}),
        KeyError,
        "unknown coordinate 'q'",
    ),
    (
        "chartfn-shift-float-delta",
        lambda: X.shift({"x": 0.5}),
        TypeError,
        "coordinate 'x' takes an int or a Fraction, not float",
    ),
    (
        "torus-duplicate-names",
        lambda: Torus(2, ("x", "x")),
        ValueError,
        "duplicate coordinate names",
    ),
    (
        "grid-float-halfwidth",
        lambda: GoodCover.grid(T2, 3, 0.2),
        TypeError,
        "halfwidth must be a Fraction, not float",
    ),
    (
        "cover-float-rect-grid",
        lambda: GoodCover(T2, [Rect((a / 3, b / 3), (0.2, 0.2)) for a in range(3) for b in range(3)]),
        TypeError,
        "Rect takes int or Fraction bounds, not float",
    ),
    (
        "grid-float-size",
        lambda: GoodCover.grid(T2, 1.5),
        TypeError,
        "grid size n must be an int, not float",
    ),
    (
        "glue-unverified-data",
        glue_tampered,
        GluingError,
        "descent data fails verification: {'identity': 'overlap', 'pair': (0, 1)}",
    ),
    *(
        (
            f"partition-window-{k}",
            lambda k=k: PartitionOfUnity.for_grid(GoodCover.grid(T2, 3)).window(k),
            IndexError,
            f"chart index {k} is outside 0..8 of 9 charts",
        )
        for k in (-1, 9)
    ),
    (
        "partition-window-float",
        lambda: PartitionOfUnity.for_grid(GoodCover.grid(T2, 3)).window(1.5),
        TypeError,
        "chart index 1.5 must be an int, not float",
    ),
    (
        "partition-window-bool",
        lambda: PartitionOfUnity.for_grid(GoodCover.grid(T2, 3)).window(True),
        TypeError,
        "chart index True must be an int, not bool",
    ),
    *(
        (
            f"partition-4-grid-{family}",
            lambda family=family: PartitionOfUnity.for_grid(GoodCover.grid(T2, 4), family),
            GluingError,
            f"no window family {family!r} for a 4-grid axis",
        )
        for family in ("bogus", "alternate")
    ),
    (
        "triple-rect-non-nerve",
        lambda: GoodCover.grid(T2, 3).triple_rect(0, 1, 2),
        KeyError,
        "charts 0, 1, 2 are not a nerve triple",
    ),
    (
        "build-missing-primitive",
        lambda: build_local_line_bundle(drop_primitive(3)),
        BundleError,
        "violates its invariants: {'identity': 'primitive', 'chart': 3, 'missing': True}",
    ),
    (
        "build-missing-transition",
        lambda: build_local_line_bundle(edit_datum(transitions=[(0, 1), (1, 0)])),
        BundleError,
        "violates its invariants: {'identity': 'transition', 'pair': (0, 1), 'missing': True}",
    ),
    (
        "build-missing-triple-constant",
        lambda: build_local_line_bundle(edit_datum(constants=lambda c: c.pop((0, 1, 3)))),
        BundleError,
        "violates its invariants: {'identity': 'triple', 'triple': (0, 1, 3), 'missing': True}",
    ),
    (
        "build-extra-triple-constant",
        lambda: build_local_line_bundle(
            edit_datum(constants=lambda c: c.update({(0, 0, 0): Scalar.zero()}))
        ),
        BundleError,
        "violates its invariants: {'identity': 'triple', 'triple': (0, 0, 0), 'extra': True}",
    ),
    (
        "chern-class-foreign-connection",
        chern_class_foreign_connection,
        GluingError,
        "the connection is glued on a different bundle",
    ),
    (
        "chern-class-connection-as-bundle",
        lambda: chern_class_of("connection"),
        TypeError,
        "chern_class needs a LocalLineBundle, not GluedConnection",
    ),
    (
        "chern-class-bundle-as-connection",
        lambda: chern_class_of("bundle"),
        TypeError,
        "chern_class needs a GluedConnection or None, not LocalLineBundle",
    ),
    *(
        (
            f"scalar-float-pi-power-{name}",
            call,
            TypeError,
            f"pi power {power} must be an int, not float",
        )
        for name, call, power in (
            ("pi-1.5", lambda: Scalar.pi(1.5), 1.5),
            ("pi-2.0", lambda: Scalar.pi(2.0), 2.0),
            ("dict-1.5", lambda: Scalar({1.5: 1}), 1.5),
        )
    ),
    (
        "elliptic-class-float-rank",
        lambda: EllipticSymbolClass(1.5, 1.5, CohomologyClass.zero(T2)),
        TypeError,
        "rank must be an int, not float",
    ),
    (
        "bidiff-negative-order",
        lambda: S2.bidiff(-1, U, U),
        ValueError,
        "order must be >= 0",
    ),
    (
        "bidiff-float-order",
        lambda: S2.bidiff(1.5, U, U),
        TypeError,
        "bidifferential order must be an int, not float",
    ),
    (
        "multiply-float-K",
        lambda: S2.multiply(U, U, 1.5),
        TypeError,
        "truncation order K must be an int, not float",
    ),
    (
        "multiply-series-float-K",
        lambda: S2.multiply(FormalSeries.constant(U, 2), U, 1.5),
        TypeError,
        "truncation order K must be an int, not float",
    ),
    (
        "associativity-float-K",
        lambda: check_associativity(S2, [(U, U, U)], 1.0),
        TypeError,
        "truncation order K must be an int, not float",
    ),
    (
        "associativity-no-samples",
        lambda: check_associativity(S2, [], 2),
        ValueError,
        "needs at least one sample",
    ),
    (
        "associativity-empty-generator",
        lambda: check_associativity(S2, (t for t in ()), 2),
        ValueError,
        "needs at least one sample triple",
    ),
    (
        "associativity-bool-K",
        lambda: check_associativity(S2, [(U, U, U)], True),
        TypeError,
        "truncation order K must be an int, not bool",
    ),
    (
        "associativity-twisted-product",
        lambda: check_associativity(
            gauge_twist(S2, GaugeOperator.laplacian_twist(R2, 2)), [(U, U, U)], 2
        ),
        TypeError,
        "check_associativity needs a PureStarProduct, not TwistedProduct",
    ),
    (
        "bidiff-bool-order",
        lambda: S2.bidiff(True, U, U),
        TypeError,
        "bidifferential order must be an int, not bool",
    ),
    *(
        (
            f"associativity-sample-{name}",
            lambda sample=sample: check_associativity(S2, [(U, U, U), sample], 2),
            ValueError,
            f"sample 1 is not a triple (a, b, c): {kind}",
        )
        for name, sample, kind in (("pair", (U, U), "2 entries"), ("function", U, "ChartFunction"))
    ),
    (
        "multiply-int-operand",
        lambda: S2.multiply(3, U, 2),
        TypeError,
        "star-product operands must be ChartFunctions or FormalSeries, not int",
    ),
    (
        "bidiff-series-operand",
        lambda: S2.bidiff(1, FormalSeries.constant(U, 2), U),
        TypeError,
        "bidiff operands must be ChartFunctions, not FormalSeries",
    ),
    (
        "tensor-consistency-foreign-manifold",
        lambda: check_tensor_consistency(
            EllipticSymbolClass.identity(Sphere2()),
            build_local_line_bundle(
                solve_cech(constant_two_form(T2, Scalar.pi(1, 2)), GoodCover.grid(T2, 3))
            ),
        ),
        ValueError,
        "symbol class lives on a different manifold than the bundle",
    ),
    (
        "solve-cech-str-omega",
        lambda: solve_cech("omega", GoodCover.grid(T2, 3)),
        TypeError,
        "omega must be a DifferentialForm, not str",
    ),
    (
        "solve-cech-str-cover",
        lambda: solve_cech(constant_two_form(T2, 1), "cover"),
        TypeError,
        "cover must be a GoodCover, not str",
    ),
    (
        "cech-transition-off-nerve",
        lambda: edit_datum().transition(0, 99),
        KeyError,
        "charts 0 and 99 do not overlap",
    ),
    (
        "cech-triple-sum-off-nerve",
        lambda: edit_datum().triple_sum(0, 1, 99),
        KeyError,
        "charts 1 and 99 do not overlap",
    ),
    (
        "form-float-covector-index",
        lambda: DifferentialForm(T2, {(1.7,): ChartFunction.one(T2.space)}),
        TypeError,
        "covector index (1.7,) needs int entries",
    ),
    (
        "scalar-plus-float",
        lambda: Scalar.pi() + 1.5,
        TypeError,
        "unsupported operand type(s) for +: 'Scalar' and 'float'",
    ),
    (
        "cech-transition-missing",
        lambda: edit_datum(transitions=[(0, 1)]).transition(0, 1),
        KeyError,
        "no transition for the overlapping charts 0 and 1",
    ),
    (
        "cech-int-primitive",
        lambda: CechConnectionData(
            GoodCover.grid(T2, 3), constant_two_form(T2, 1), {0: 5}, {}, {}
        ).verify(),
        TypeError,
        "primitive 0 must be a DifferentialForm, not int",
    ),
    (
        "star-trace-str-product",
        lambda: star_trace(X, "P", 2),
        TypeError,
        "star_trace needs a PureStarProduct, not str",
    ),
    (
        "gauge-twist-str-product",
        lambda: gauge_twist("P", GaugeOperator.identity(R2, 2)),
        TypeError,
        "gauge_twist needs a PureStarProduct, not str",
    ),
    (
        "gauge-twist-str-gauge",
        lambda: gauge_twist(S2, "T"),
        TypeError,
        "gauge_twist needs a GaugeOperator, not str",
    ),
    (
        "gauge-identity-negative-K",
        lambda: GaugeOperator.identity(R2, -1),
        ValueError,
        "truncation order K must be >= 0, not -1",
    ),
    (
        "form-basis-unknown-covector",
        lambda: DifferentialForm.basis(T2, "dz"),
        KeyError,
        "no covector 'dz' on Torus(n=2, names=('x', 'y')), whose covectors are ('dx', 'dy')",
    ),
    (
        "twisted-index-str-symbol",
        lambda: twisted_index("a", None, T2),
        TypeError,
        "twisted_index needs an EllipticSymbolClass, not str",
    ),
    (
        "twisted-index-str-omega",
        lambda: twisted_index(EllipticSymbolClass.identity(T2), "w", T2),
        TypeError,
        "omega must be a DifferentialForm or None, not str",
    ),
    (
        "homotopy-str-target",
        lambda: check_homotopy_invariance(
            EllipticSymbolClass.identity(T2),
            constant_two_form(T2, 1),
            T2,
            DifferentialForm.basis(T2, "dx"),
            target="foo",
        ),
        ValueError,
        """target must be "omega" or an int degree, not 'foo'""",
    ),
    (
        "series-constant-negative-K",
        lambda: FormalSeries.constant(U, -1),
        ValueError,
        "truncation order K must be >= 0, not -1",
    ),
    (
        "chartfn-float-exponent",
        lambda: ChartFunction(T2.space, {((1.5, 0), (0, 0)): 1}),
        TypeError,
        "term ((1.5, 0), (0, 0)) needs int exponents and frequencies",
    ),
    (
        "chartfn-monomial-float-exponent",
        lambda: ChartFunction.monomial(T2.space, {"x": 2.9}),
        TypeError,
        "term ((2.9, 0), (0, 0)) needs int exponents and frequencies",
    ),
    (
        "chartfn-fourier-float-frequency",
        lambda: ChartFunction.fourier(T2.space, {"x": 1.2}),
        TypeError,
        "term ((0, 0), (1.2, 0)) needs int exponents and frequencies",
    ),
    (
        "const-coeff-float-order",
        lambda: ConstCoeffOperator.from_dict(R2, {(1.5, 0): 1}),
        TypeError,
        "derivative order in (1.5, 0) must be an int, not float",
    ),
    (
        "gauge-float-order",
        lambda: GaugeOperator.from_dict(R2, 3, {1.5: ConstCoeffOperator.laplacian(R2)}),
        TypeError,
        "gauge order 1.5 must be an int, not float",
    ),
    (
        "hardy-str-symbol",
        lambda: winding_number("z"),
        TypeError,
        "a Hardy symbol must be a ChartFunction, not str",
    ),
    (
        "hardy-two-coordinate-chart",
        lambda: is_elliptic(X),
        ValueError,
        "a Hardy symbol needs a one-coordinate periodic chart",
    ),
    (
        "hardy-lifted-coordinate",
        lambda: winding_number(Z + ChartFunction.variable(T1.space, "x")),
        ValueError,
        "depends on the lifted coordinate (exponent 1)",
    ),
    (
        "hardy-pi-coefficient",
        lambda: toeplitz_index(Z + Scalar.pi()),
        ValueError,
        "coefficient pi has a pi power: Sturm signs need pi-free coefficients",
    ),
    (
        "hardy-zero-symbol",
        lambda: is_elliptic(ChartFunction.zero(T1.space)),
        ValueError,
        "the zero symbol has no index",
    ),
    (
        "hardy-not-elliptic",
        lambda: toeplitz_index(1 + Z),
        ValueError,
        "symbol (1)*1 + (1)*e(1x) vanishes on the circle: not elliptic",
    ),
    (
        "cp1-float-exponent",
        lambda: CP1Function({(1.5, 0, 2): 1}),
        TypeError,
        "term (1.5, 0, 2) needs int exponents",
    ),
    (
        "commutator-decay-float-level",
        lambda: commutator_decay(CP1Function.real_part(), CP1Function.imag_part(), [2.7, 4.2]),
        TypeError,
        "level k must be an int, not float",
    ),
    (
        "berezin-matrix-float-level",
        lambda: BerezinMatrix(CP1Function.one(), 2.5),
        TypeError,
        "level k must be an int, not float",
    ),
]


@pytest.mark.parametrize("call, exc, fragment", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_call_raises_named_error(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


def test_associativity_takes_a_generator_of_samples():
    report = check_associativity(S2, (t for t in [(U, U, U)]), 2)
    assert report.passed and report.samples == 1
