from fractions import Fraction

import pytest

from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.gauge import ConstCoeffOperator, GaugeOperator, TwistedProduct, gauge_twist
from starbundle.poisson import PoissonStructure, poisson_bracket
from starbundle.series import FormalSeries
from starbundle.star import PureStarProduct

from conftest import random_poly

R2 = ChartSpace.euclidean(("x", "y"))
P2 = PoissonStructure.standard(R2)
S2 = PureStarProduct(P2)
X = ChartFunction.variable(R2, "x")
Y = ChartFunction.variable(R2, "y")


def test_identity_gauge_is_noop(rng):
    T = GaugeOperator.identity(R2, 4)
    twisted = gauge_twist(S2, T)
    a, b = random_poly(R2, rng), random_poly(R2, rng)
    assert twisted.multiply(a, b, 4) == S2.multiply(a, b, 4)


def test_apply_inverse_round_trip(rng):
    T = GaugeOperator.laplacian_twist(R2, 4)
    series = FormalSeries(
        R2, [random_poly(R2, rng, max_deg=4, n_terms=3) for _ in range(5)]
    )
    assert T.apply_inverse(T.apply(series)) == series
    assert T.apply(T.apply_inverse(series)) == series


def test_laplacian_twist_properties(rng):
    T = GaugeOperator.laplacian_twist(R2, 4)
    assert T.preserves_unit()
    twisted = gauge_twist(S2, T)

    # order-0 term of the twisted product is still the pointwise product
    got = twisted.multiply(X, Y, 4)
    assert got.coefficient(0) == X * Y

    # unit preserved
    a = random_poly(R2, rng)
    assert twisted.multiply(ChartFunction.one(R2), a, 4) == FormalSeries.constant(a, 4)
    assert twisted.multiply(a, ChartFunction.one(R2), 4) == FormalSeries.constant(a, 4)

    # associativity at K = 4 on sampled triples, exactly
    for _ in range(4):
        trip = [random_poly(R2, rng, max_deg=3, n_terms=2) for _ in range(3)]
        left = twisted.multiply(twisted.multiply(trip[0], trip[1], 4), trip[2], 4)
        right = twisted.multiply(trip[0], twisted.multiply(trip[1], trip[2], 4), 4)
        assert left == right


def test_twisted_first_order_antisymmetrization(rng):
    # the order-1 commutator is 2 {a, b} for any unit-preserving gauge
    ops = {
        1: ConstCoeffOperator.laplacian(R2),
        2: ConstCoeffOperator.from_dict(R2, {(1, 1): Fraction(2, 3)}),
    }
    T = GaugeOperator.from_dict(R2, 4, ops)
    assert T.preserves_unit()
    twisted = gauge_twist(S2, T)
    assert twisted.commutator(X, Y, 1).coefficient(1) == ChartFunction.constant(R2, 2)
    for _ in range(5):
        a, b = random_poly(R2, rng), random_poly(R2, rng)
        assert twisted.commutator(a, b, 1).coefficient(1) == poisson_bracket(a, b, P2).scale(2)
    assert twisted.commutator(X * X, Y, 1).coefficient(1) == poisson_bracket(X * X, Y, P2).scale(2)


def test_non_unit_preserving_gauge_still_poisson_compatible():
    # a gauge with a constant term and first-order part: the order-1
    # commutator is unchanged because the correction is symmetric in (a, b)
    ops = {1: ConstCoeffOperator.from_dict(R2, {(0, 0): 1, (2, 0): 1})}
    T = GaugeOperator.from_dict(R2, 3, ops)
    assert not T.preserves_unit()
    twisted = gauge_twist(S2, T)
    assert twisted.commutator(X, Y, 1).coefficient(1) == ChartFunction.constant(R2, 2)


def test_twisted_commutator_matches_difference_of_products(rng):
    # one base commutator call gives a *' b - b *' a, for both gauges above
    ops = {1: ConstCoeffOperator.from_dict(R2, {(0, 0): 1, (2, 0): 1})}
    for T in (GaugeOperator.laplacian_twist(R2, 4), GaugeOperator.from_dict(R2, 4, ops)):
        twisted = gauge_twist(S2, T)
        a, b = random_poly(R2, rng, max_deg=4), random_poly(R2, rng, max_deg=4)
        assert twisted.commutator(a, b) == twisted.multiply(a, b) - twisted.multiply(b, a)
        assert twisted.commutator(a, b, 2) == twisted.multiply(a, b, 2) - twisted.multiply(b, a, 2)


def test_order_zero_gauge_rejected():
    with pytest.raises(ValueError):
        GaugeOperator.from_dict(R2, 3, {0: ConstCoeffOperator.laplacian(R2)})
