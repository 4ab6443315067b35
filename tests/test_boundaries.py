"""Malformed calls at the public boundaries fail with a named error.

Each row is (id, call, exception type, message fragment).  A call outside
the supported family must raise the named type with a message that says
what was wrong, never return a wrong answer or end in an unrelated error.
"""

from fractions import Fraction

import pytest

from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.forms import DifferentialForm
from starbundle.manifold import Torus
from starbundle.poisson import PoissonStructure
from starbundle.star import PureStarProduct

T2 = Torus(2)
X = ChartFunction.variable(T2.space, "x")
R2 = ChartSpace.euclidean(("x", "y"))
U = ChartFunction.variable(R2, "x")

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
        "bidiff-negative-order",
        lambda: PureStarProduct(PoissonStructure.standard(R2)).bidiff(-1, U, U),
        ValueError,
        "order must be >= 0",
    ),
]


@pytest.mark.parametrize("call, exc, fragment", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_call_raises_named_error(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)
