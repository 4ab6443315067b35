"""Malformed calls at the public boundaries fail with a named error.

Each row is (id, call, exception type, message fragment).  A call outside
the supported family must raise the named type with a message that says
what was wrong, never return a wrong answer or end in an unrelated error.
"""

from fractions import Fraction

import pytest

from starbundle.bundle import BundleError, LocalLineBundle, build_local_line_bundle
from starbundle.cech import CechConnectionData, constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.cover import GoodCover
from starbundle.forms import DifferentialForm
from starbundle.gluing import (
    GluingError,
    PartitionOfUnity,
    chern_class,
    glue_multiplicative_connection,
)
from starbundle.manifold import Torus
from starbundle.poisson import PoissonStructure
from starbundle.scalar import Scalar
from starbundle.series import FormalSeries
from starbundle.star import PureStarProduct, check_associativity

T2 = Torus(2)
X = ChartFunction.variable(T2.space, "x")
R2 = ChartSpace.euclidean(("x", "y"))
U = ChartFunction.variable(R2, "x")
S2 = PureStarProduct(PoissonStructure.standard(R2))


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
        "triple-rect-non-nerve",
        lambda: GoodCover.grid(T2, 3).triple_rect(0, 1, 2),
        KeyError,
        "charts 0, 1, 2 are not a nerve triple",
    ),
    (
        "build-missing-primitive",
        lambda: LocalLineBundle.build(drop_primitive(3)),
        BundleError,
        "violates its invariants: {'identity': 'primitive', 'chart': 3, 'missing': True}",
    ),
    (
        "build-missing-transition",
        lambda: LocalLineBundle.build(edit_datum(transitions=[(0, 1), (1, 0)])),
        BundleError,
        "violates its invariants: {'identity': 'transition', 'pair': (0, 1), 'missing': True}",
    ),
    (
        "build-missing-triple-constant",
        lambda: LocalLineBundle.build(edit_datum(constants=lambda c: c.pop((0, 1, 3)))),
        BundleError,
        "violates its invariants: {'identity': 'triple', 'triple': (0, 1, 3), 'missing': True}",
    ),
    (
        "build-extra-triple-constant",
        lambda: LocalLineBundle.build(
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
        "series-constant-negative-K",
        lambda: FormalSeries.constant(U, -1),
        ValueError,
        "truncation order K must be >= 0, not -1",
    ),
]


@pytest.mark.parametrize("call, exc, fragment", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_call_raises_named_error(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)
