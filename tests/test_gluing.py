from fractions import Fraction

import pytest

from starbundle.bundle import build_local_line_bundle
from starbundle.cech import constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cover import GoodCover
from starbundle.forms import DifferentialForm
from starbundle.gluing import (
    GluedConnection,
    GluingError,
    PartitionOfUnity,
    chern_class,
    connection_difference,
    glue_hermitian,
    glue_multiplicative_connection,
    left_curvature,
)
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)
COVER = GoodCover.grid(T2, 3)


def make_bundle(theta):
    return build_local_line_bundle(solve_cech(constant_two_form(T2, theta), COVER))


def varied_initial(bundle):
    """alpha_i plus a distinct closed correction per chart."""
    x_form = DifferentialForm.basis(T2, "dx")
    out = {}
    for i, alpha in bundle.data.alphas.items():
        out[i] = alpha + x_form.scale(Scalar.rational(Fraction(i, 9)))
    return out


def test_partition_sums_to_one_exactly():
    for family in ("primary", "alternate"):
        part = PartitionOfUnity.for_grid(COVER, family)
        total = ChartFunction.zero(T2.space)
        for w in map(part.window, range(len(part.cover.charts))):
            assert w.is_real() and w.is_global()
            total = total + w
        assert total == ChartFunction.one(T2.space)


def test_partition_window_count_guard():
    part = PartitionOfUnity.for_grid(COVER)
    with pytest.raises(GluingError):
        PartitionOfUnity(COVER, [part.axis_windows[0][:2], part.axis_windows[1]])


def test_partition_negative_window_rejected():
    cos = ChartFunction.cosine(T2.space, "x")
    third = ChartFunction.constant(T2.space, Fraction(1, 3))
    bad = [third + cos.scale(Fraction(1, 2)),  # dips below zero
           third - cos.scale(Fraction(1, 4)),
           third - cos.scale(Fraction(1, 4))]
    with pytest.raises(GluingError):
        PartitionOfUnity(COVER, [bad, PartitionOfUnity.for_grid(COVER).axis_windows[1]])


def test_partition_four_grid_exact():
    cover4 = GoodCover.grid(T2, 4)
    part = PartitionOfUnity.for_grid(cover4)
    total = ChartFunction.zero(T2.space)
    for w in map(part.window, range(len(part.cover.charts))):
        total = total + w
    assert total == ChartFunction.one(T2.space)


def test_partition_unsupported_grid():
    cover5 = GoodCover.grid(T2, 5)
    with pytest.raises(GluingError):
        PartitionOfUnity.for_grid(cover5)


def test_single_chartless_gluing_guard():
    cover4 = GoodCover.grid(T2, 4)  # has non-overlapping pairs
    bundle = build_local_line_bundle(
        solve_cech(constant_two_form(T2, Fraction(1, 2)), cover4)
    )
    part = PartitionOfUnity.for_grid(cover4)
    with pytest.raises(GluingError):
        glue_multiplicative_connection(bundle, part)


def test_gluing_cover_guard():
    bundle = make_bundle(Fraction(3, 7))
    equal_cover = GoodCover.grid(T2, 3)  # equal to COVER, not the same object
    conn = glue_multiplicative_connection(bundle, PartitionOfUnity.for_grid(equal_cover))
    assert conn.left_forms == bundle.data.alphas
    other_cover = GoodCover.grid(T2, 3, halfwidth=Fraction(1, 4))
    with pytest.raises(GluingError):
        glue_multiplicative_connection(bundle, PartitionOfUnity.for_grid(other_cover))


def test_default_gluing_collapses_to_cech_primitives():
    # with initial = alpha the overlap identity alpha_j + d phi_ij = alpha_i
    # makes the partition average collapse exactly
    bundle = make_bundle(Fraction(3, 7))
    part = PartitionOfUnity.for_grid(COVER)
    conn = glue_multiplicative_connection(bundle, part)
    for i, beta in conn.left_forms.items():
        assert beta == bundle.data.alphas[i]
    assert conn.consistency_report().passed
    # a glued form shifted by dy breaks every overlap of its chart
    left = dict(conn.left_forms)
    left[0] = left[0] + DifferentialForm.basis(T2, "dy")
    report = GluedConnection(bundle, part, conn.initial, left).consistency_report()
    assert report.checked == len(bundle.data.transitions)
    assert len(report.failures) == sum(1 for pair in bundle.data.transitions if 0 in pair)


@pytest.mark.parametrize(
    "theta", [Scalar.zero(), Scalar.rational(Fraction(3, 7)), Scalar.pi(1, 2)]
)
def test_left_curvature_recovers_omega_bitwise(theta):
    bundle = make_bundle(theta)
    part = PartitionOfUnity.for_grid(COVER)
    conn = glue_multiplicative_connection(bundle, part)
    assert left_curvature(conn) == bundle.data.omega


def test_varied_initial_still_consistent():
    bundle = make_bundle(Fraction(3, 7))
    part = PartitionOfUnity.for_grid(COVER)
    conn = glue_multiplicative_connection(bundle, part, initial=varied_initial(bundle))
    assert conn.consistency_report().passed
    # curvature differs from omega by the exact form d(sum c_j rho_j dx)
    curv = left_curvature(conn)
    x_form = DifferentialForm.basis(T2, "dx")
    primitive = DifferentialForm.zero(T2)
    for j in range(9):
        primitive = primitive + x_form.scale(Scalar.rational(Fraction(j, 9))).multiply_function(part.window(j))
    assert curv == bundle.data.omega + primitive.exterior_d()


def partial_initial(bundle):
    """alpha_j on the even charts, alpha_j plus a correction on the odd ones."""
    varied = varied_initial(bundle)
    return {j: varied[j] if j % 2 else alpha for j, alpha in bundle.data.alphas.items()}


INITIALS = {"default": (None, 0), "varied": (varied_initial, 8), "partial": (partial_initial, 4)}


@pytest.mark.parametrize(
    "make_initial, moved, family",
    [(*v, "primary") for v in INITIALS.values()] + [(*v, "alternate") for v in INITIALS.values()],
    ids=list(INITIALS) + [f"{name}-alternate" for name in INITIALS],
)
def test_glue_matches_ungrouped_sum(make_initial, moved, family):
    """beta_i against sum_j T_ij * rho_j, one product per chart pair; moved
    counts the charts whose initial connection is not alpha_j."""
    bundle = make_bundle(Scalar.pi(1, Fraction(2, 3)))
    part = PartitionOfUnity.for_grid(COVER, family)
    initial = make_initial(bundle) if make_initial else bundle.data.alphas
    conn = glue_multiplicative_connection(bundle, part, initial=initial if make_initial else None)
    windows = [part.window(j) for j in range(len(COVER.charts))]
    for i in range(len(COVER.charts)):
        expected = DifferentialForm.zero(T2)
        transported = set()
        for j in range(len(COVER.charts)):
            t = initial[i]
            if j != i:
                dphi = DifferentialForm.from_function(T2, bundle.data.transition(i, j)).exterior_d()
                t = initial[j].shift(COVER.frame_shift(i, j)) + dphi
            transported.add(t)
            expected = expected + t.multiply_function(windows[j])
        assert len(transported) == 1 + moved
        assert conn.left_forms[i] == expected
    assert conn.consistency_report().passed


def test_two_partitions_differ_by_global_one_form():
    bundle = make_bundle(Fraction(3, 7))
    initial = varied_initial(bundle)
    conn_a = glue_multiplicative_connection(
        bundle, PartitionOfUnity.for_grid(COVER, "primary"), initial=initial
    )
    conn_b = glue_multiplicative_connection(
        bundle, PartitionOfUnity.for_grid(COVER, "alternate"), initial=initial
    )
    beta = connection_difference(conn_a, conn_b)
    assert not beta.is_zero()
    assert all(c.is_global() for c in beta.terms.values())
    # curvatures differ by an exact form with explicit primitive beta
    curv_a = left_curvature(conn_a)
    curv_b = left_curvature(conn_b)
    assert curv_a - curv_b == beta.exterior_d()
    # chern output is bitwise identical
    cls_a = chern_class(bundle, conn_a)
    cls_b = chern_class(bundle, conn_b)
    assert cls_a.coefficient == cls_b.coefficient
    assert cls_a.cohomology_class == cls_b.cohomology_class


def test_global_form_guards():
    # left_curvature and connection_difference return one form only when
    # every chart carries it and its coefficients are periodic
    bundle = make_bundle(Fraction(3, 7))
    part = PartitionOfUnity.for_grid(COVER)
    conn = glue_multiplicative_connection(bundle, part)
    x = ChartFunction.variable(T2.space, "x")
    y = ChartFunction.variable(T2.space, "y")
    dy = DifferentialForm.basis(T2, "dy")

    def moved(extra, charts):
        left = {i: b + extra if i in charts else b for i, b in conn.left_forms.items()}
        return GluedConnection(bundle, part, conn.initial, left)

    everywhere = range(len(COVER.charts))
    with pytest.raises(GluingError, match="glued curvature is chart-dependent"):
        left_curvature(moved(dy.multiply_function(x), {0}))
    with pytest.raises(GluingError, match="glued curvature does not descend to the torus"):
        left_curvature(moved(dy.multiply_function(x * y), everywhere))
    with pytest.raises(GluingError, match="connection difference is chart-dependent"):
        connection_difference(moved(dy, {0}), conn)
    with pytest.raises(GluingError, match="connection difference does not descend to the torus"):
        connection_difference(moved(dy.multiply_function(x), everywhere), conn)


def test_chern_class_family():
    theta_int = chern_class(make_bundle(Scalar.pi(1, 6)))  # theta = 6*pi = 2*pi*3
    assert theta_int.coefficient == Scalar.rational(3)
    assert theta_int.is_integral
    frac = chern_class(make_bundle(Fraction(3, 7)))
    assert frac.coefficient == Scalar.pi(-1, Fraction(3, 14))
    assert not frac.is_integral
    zero = chern_class(make_bundle(0))
    assert zero.coefficient.is_zero() and zero.is_integral


def test_integrality_criterion_both_directions():
    for theta, integral in [
        (Scalar.zero(), True),
        (Scalar.pi(1, 2), True),
        (Scalar.pi(1, 4), True),
        (Scalar.rational(Fraction(3, 7)), False),
        (Scalar.pi(1, Fraction(2, 3)), False),
        (Scalar.rational(1), False),
    ]:
        bundle = make_bundle(theta)
        closes = bundle.honest_cocycle_closes().passed
        cls = chern_class(bundle)
        assert closes == cls.is_integral == theta.is_two_pi_integer()


def test_hermitian_gluing():
    bundle = make_bundle(Fraction(3, 7))
    part = PartitionOfUnity.for_grid(COVER)
    flat = {i: ChartFunction.one(T2.space) for i in range(9)}
    metric = glue_hermitian(bundle, part, flat)
    assert metric.weight == ChartFunction.one(T2.space)

    bump = ChartFunction.one(T2.space) + (
        ChartFunction.one(T2.space) + ChartFunction.cosine(T2.space, "x")
    ).scale(Fraction(1, 4))
    weights = {i: bump for i in range(9)}
    metric = glue_hermitian(bundle, part, weights)
    assert metric.weight == bump  # partition averages a constant family
    dh = DifferentialForm.from_function(T2, bump).exterior_d()
    assert metric.compatible_connection_witness() == (dh.scale(Fraction(1, 2)), bump)


def test_hermitian_rejects_bad_weights():
    bundle = make_bundle(Fraction(3, 7))
    part = PartitionOfUnity.for_grid(COVER)
    negative = {i: ChartFunction.cosine(T2.space, "x") for i in range(9)}
    with pytest.raises(GluingError):
        glue_hermitian(bundle, part, negative)
    local = {i: ChartFunction.variable(T2.space, "x") + 2 for i in range(9)}
    with pytest.raises(GluingError):
        glue_hermitian(bundle, part, local)
