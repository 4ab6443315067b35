"""The triple sums of a Cech datum are built once each, equal a fresh
computation, and die with the datum; the overlap law builds no form from a
transition; the triple law reads the sums and evaluates no point."""

import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from starbundle import cech
from starbundle.bundle import LocalLineBundle, build_local_line_bundle
from starbundle.chartfn import ChartFunction
from starbundle.cech import constant_two_form, solve_cech
from starbundle.cover import GoodCover
from starbundle.forms import DifferentialForm
from starbundle.gluing import (
    PartitionOfUnity,
    chern_class,
    glue_multiplicative_connection,
    left_curvature,
)
from starbundle.index import EllipticSymbolClass, twisted_index
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)


def pipeline_op(theta):
    """One t2 pipeline run, stage by stage; returns the datum."""
    cover = GoodCover.grid(T2, 3)
    omega = constant_two_form(T2, theta)
    data = solve_cech(omega, cover)
    bundle = build_local_line_bundle(data)
    assert bundle.check_triple_associativity().passed
    connection = glue_multiplicative_connection(bundle, PartitionOfUnity.for_grid(cover))
    assert left_curvature(connection) == omega
    chern_class(bundle, connection)
    twisted_index(EllipticSymbolClass.on_torus2(T2, 1, 2), omega, T2)
    return data


@pytest.mark.parametrize("theta", [Scalar.pi(1, Fraction(1, 3)), Scalar.rational(Fraction(3, 7))])
def test_tables_equal_fresh_computation(theta):
    data = pipeline_op(theta)
    for triple in data.cover.triples:
        assert data.triple_sum(*triple) == cech._triple_sum(data.cover, data.transitions, *triple)


def test_one_op_builds_each_quantity_once(monkeypatch):
    sums = Counter()
    real_sum = cech._triple_sum

    def counted_sum(cover, transitions, i, j, k):
        sums[(i, j, k)] += 1
        return real_sum(cover, transitions, i, j, k)

    arguments = []
    real_from_function = DifferentialForm.from_function

    def counted_from_function(manifold, f):
        arguments.append(f)
        return real_from_function(manifold, f)

    monkeypatch.setattr(cech, "_triple_sum", counted_sum)
    monkeypatch.setattr(DifferentialForm, "from_function", staticmethod(counted_from_function))
    data = pipeline_op(Scalar.pi(1, Fraction(2, 5)))
    assert sums == Counter({triple: 1 for triple in data.cover.triples})
    # the overlap law reads partial derivatives of each phi_ij, not a form
    for key, phi in data.transitions.items():
        assert not any(f is phi for f in arguments), key


def test_triple_law_evaluates_no_point(monkeypatch):
    inside = []
    calls = Counter()
    real_check = LocalLineBundle.check_triple_associativity
    real_evaluate = ChartFunction.evaluate

    def staged_check(bundle):
        inside.append(True)
        try:
            return real_check(bundle)
        finally:
            inside.pop()

    def counted_evaluate(f, point):
        calls["triple" if inside else "other"] += 1
        return real_evaluate(f, point)

    monkeypatch.setattr(LocalLineBundle, "check_triple_associativity", staged_check)
    monkeypatch.setattr(ChartFunction, "evaluate", counted_evaluate)
    pipeline_op(Scalar.pi(1, Fraction(2, 5)))
    assert calls["triple"] == 0


@pytest.mark.parametrize("moved", [0, 3], ids=["default", "varied"])
def test_glue_shifts_only_the_moved_connections(monkeypatch, moved):
    """With the default initial the glue transports nothing; a chart whose
    initial connection is not alpha_j costs one shift per other chart."""
    cover = GoodCover.grid(T2, 3)
    bundle = build_local_line_bundle(solve_cech(constant_two_form(T2, Scalar.pi(1, 2)), cover))
    partition = PartitionOfUnity.for_grid(cover)
    initial = dict(bundle.data.alphas)
    for j in range(moved):
        initial[j] = initial[j] + DifferentialForm.basis(T2, "dx").scale(j + 1)
    shifted = []
    real_shift = DifferentialForm.shift

    def counted_shift(form, delta):
        shifted.append(form)
        return real_shift(form, delta)

    monkeypatch.setattr(DifferentialForm, "shift", counted_shift)
    glue_multiplicative_connection(bundle, partition, initial=initial if moved else None)
    assert len(shifted) == moved * (len(cover.charts) - 1)


def test_tables_die_with_the_datum():
    data = pipeline_op(Scalar.pi(1, Fraction(5, 3)))
    assert len(data._sums) == len(data.cover.triples)
    # only the datum holds its table: nothing at module level keeps it
    assert gc.get_referrers(data._sums) == [data]
    ref = weakref.ref(data)
    del data
    gc.collect()
    assert ref() is None

