"""Glued multiplicative connections and Hermitian structures.

Starting connections d + i*a_j are averaged against an exact partition of
unity: with delta_j = a_j - alpha_j, chart i's glued left 1-form is

    beta_i = sum_j rho_j * (a_j + d phi_ij) = alpha_i + sum_j rho_j * delta_j

where a_j, delta_j and phi_ij are translated into chart i's frame; the two
sums agree by the overlap identity alpha_j + d phi_ij = alpha_i and by
sum rho_j = 1.  Every check here can fail on some input: the glued forms'
overlap consistency, a curvature or connection difference that must be one
global form in every chart, the partition's exact sum and certified
nonnegativity, and the weights' positivity certificate.  Each is a
polynomial identity, so it is exact even though trigonometric windows
cannot vanish on open sets.  Multiplicativity is not checked: a product
form pi_L*b - pi_R*b is additive over triples, and a metric weight
h(x)/h(y) multiplicative, for every b and h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .bundle import LocalLineBundle
from .chartfn import ChartFunction, ChartSpace
from .cohomology import CohomologyClass
from .cover import GoodCover
from .forms import DifferentialForm
from .report import CheckReport
from .scalar import Scalar


class GluingError(ValueError):
    pass


def _window_min_certificate(w: ChartFunction) -> Fraction:
    """Exact nonnegativity certificate for a single-frequency real window.

    For w = c0 + 2*Re(c1 e(u)) the minimum is c0 - 2|c1|, so nonnegativity
    is the rational inequality 4|c1|^2 <= c0^2.  Conjugate mode pairs are
    counted once via their positive-half representative.
    """
    zero_mon = (0,) * w.space.dim
    c0 = Fraction(0)
    amp_sq = Fraction(0)
    positive_modes = 0
    for (mon, freq), c in w.terms.items():
        if mon != zero_mon:
            raise GluingError("windows must be trigonometric polynomials")
        if all(k == 0 for k in freq):
            if not c.is_real():
                raise GluingError("windows must be real")
            c0 = c.re.as_fraction()
        elif sum(abs(k) for k in freq) == 1:
            lead = next(k for k in freq if k != 0)
            if lead > 0:
                positive_modes += 1
                amp_sq += c.re.as_fraction() ** 2 + c.im.as_fraction() ** 2
        else:
            raise GluingError("window certificate needs frequencies in {-1,0,1}")
    if positive_modes > 1:
        raise GluingError("window certificate handles one mode per axis window")
    if c0 < 0 or 4 * amp_sq > c0**2:
        raise GluingError(f"window fails the nonnegativity certificate: {w}")
    return c0


class PartitionOfUnity:
    """Tensor products of exact per-axis windows on a grid cover.

    Axis windows are raised-cosine profiles with rational Fourier pairs;
    their sum telescopes to 1 exactly and each is certified nonnegative.
    """

    def __init__(self, cover: GoodCover, axis_windows: Sequence[Sequence[ChartFunction]]):
        if cover.grid_shape is None:
            raise GluingError("partitions are built over grid covers")
        self.cover = cover
        self.axis_windows = tuple(tuple(ws) for ws in axis_windows)
        space = cover.torus.space
        if len(self.axis_windows) != cover.torus.dim:
            raise GluingError("one window family per axis is required")
        for axis, windows in enumerate(self.axis_windows):
            if len(windows) != cover.grid_shape[axis]:
                raise GluingError(
                    "window count does not match the grid: partition not "
                    "subordinate to this cover"
                )
            total = ChartFunction.zero(space)
            for w in windows:
                if not w.is_real() or not w.is_global():
                    raise GluingError("windows must be real global functions")
                _window_min_certificate(w)
                total = total + w
            if total != ChartFunction.one(space):
                raise GluingError(f"axis {axis} windows do not sum to 1 exactly")
        # grid coordinates per chart index (row-major as built by GoodCover.grid)
        self._coords = list(product(*(range(k) for k in cover.grid_shape)))
        if len(self._coords) != len(cover.charts):
            raise GluingError("grid shape does not match the chart count")

    @staticmethod
    def _axis_family_3(space: ChartSpace, name: str, variant: str) -> list[ChartFunction]:
        """Exact 3-window families; thirds shifts would need sqrt(3), so the
        side windows are rational tilted raised cosines peaked in their charts."""
        one_third = ChartFunction.constant(space, Fraction(1, 3))
        cos = ChartFunction.cosine(space, name)
        sin = ChartFunction.sine(space, name)
        if variant == "primary":
            a, b = Fraction(1, 6), Fraction(2, 7)
            w0 = one_third + cos.scale(Fraction(1, 3))
        elif variant == "alternate":
            a, b = Fraction(1, 8), Fraction(2, 7)
            w0 = one_third + cos.scale(Fraction(1, 4))
        else:
            raise GluingError(f"unknown window family {variant!r}")
        w1 = one_third - cos.scale(a) + sin.scale(b)
        w2 = one_third - cos.scale(a) - sin.scale(b)
        return [w0, w1, w2]

    @staticmethod
    def _axis_family_4(space: ChartSpace, name: str, variant: str) -> list[ChartFunction]:
        if variant != "primary":
            raise GluingError(f"no window family {variant!r} for a 4-grid axis; only 'primary'")
        windows = []
        for k in range(4):
            cos_k = ChartFunction.cosine(space, name).shift({name: Fraction(-k, 4)})
            windows.append(
                (ChartFunction.one(space) + cos_k).scale(Fraction(1, 4))
            )
        return windows

    @staticmethod
    def for_grid(cover: GoodCover, family: str = "primary") -> "PartitionOfUnity":
        if cover.grid_shape is None:
            raise GluingError("partitions are built over grid covers")
        space = cover.torus.space
        axis_windows = []
        for axis, n in enumerate(cover.grid_shape):
            name = cover.torus.names[axis]
            if n == 3:
                axis_windows.append(PartitionOfUnity._axis_family_3(space, name, family))
            elif n == 4:
                axis_windows.append(PartitionOfUnity._axis_family_4(space, name, family))
            else:
                raise GluingError(
                    f"no exact rational window family for a {n}-grid axis"
                )
        return PartitionOfUnity(cover, axis_windows)

    def window(self, chart_index: int) -> ChartFunction:
        if not isinstance(chart_index, int) or isinstance(chart_index, bool):
            raise TypeError(
                f"chart index {chart_index!r} must be an int, not {type(chart_index).__name__}"
            )
        count = len(self._coords)
        if not 0 <= chart_index < count:
            raise IndexError(
                f"chart index {chart_index} is outside 0..{count - 1} of {count} charts"
            )
        coords = self._coords[chart_index]
        w = ChartFunction.one(self.cover.torus.space)
        for axis, pos in enumerate(coords):
            w = w * self.axis_windows[axis][pos]
        return w


class GluedConnection:
    """Per-chart left connection 1-forms of a glued product connection."""

    def __init__(
        self,
        bundle: LocalLineBundle,
        partition: PartitionOfUnity,
        initial: Mapping[int, DifferentialForm],
        left_forms: Mapping[int, DifferentialForm],
    ):
        self.bundle = bundle
        self.partition = partition
        self.initial = dict(initial)
        self.left_forms = dict(left_forms)

    def consistency_report(self) -> CheckReport:
        """beta_i - beta_j = d phi_ij on every overlap, exactly."""
        data = self.bundle.data
        overlaps = data.overlap_failures(self.left_forms)
        failures = [{"identity": "overlap", "pair": pair} for pair in overlaps]
        return CheckReport("overlap_consistency", len(data.transitions), failures)


def glue_multiplicative_connection(
    bundle: LocalLineBundle,
    partition: PartitionOfUnity,
    initial: Mapping[int, DifferentialForm] | None = None,
) -> GluedConnection:
    """Average chart connections through the partition of unity.

    ``initial`` supplies the per-chart starting connections a_j (default:
    the Cech primitives alpha_j).  The construction needs verified descent
    data, on which a_j + d phi_ij = alpha_i + delta_j with
    delta_j = a_j - alpha_j in chart i's frame, and every pair of charts to
    overlap so the translated integrands are defined chart-wide.  As
    sum rho_j = 1, beta_i = alpha_i + sum_j rho_j * delta_j over the charts
    whose delta_j is not 0: exactly the partition average of the
    transported forms, and alpha_i itself for the default ``initial``.
    """
    cover = bundle.cover
    if partition.cover is not cover and (
        partition.cover.torus, partition.cover.charts, partition.cover.grid_shape
    ) != (cover.torus, cover.charts, cover.grid_shape):
        raise GluingError("partition is subordinate to a different cover")
    if not cover.complete_pairwise():
        raise GluingError(
            "gluing needs pairwise-overlapping charts for the exact extension"
        )
    if not (report := bundle.data.verify()).passed:
        raise GluingError(f"descent data fails verification: {report.failures[0]}")
    torus = bundle.torus
    alphas = bundle.data.alphas
    if initial is None:
        initial = alphas
    else:
        initial = dict(initial)
        for i, form in initial.items():
            if form.manifold != torus:
                raise GluingError("initial connection forms live on the torus charts")
            if any(len(idx) != 1 for idx in form.terms):
                raise GluingError("initial connections must be 1-forms")
        if set(initial) != set(range(len(cover.charts))):
            raise GluingError("one initial connection per chart is required")

    weighted = {
        j: (initial[j] - alpha, partition.window(j))
        for j, alpha in alphas.items()
        if initial[j] != alpha
    }
    left_forms = {}
    for i, alpha in alphas.items():
        total = alpha
        for j, (delta, window) in weighted.items():
            here = delta if j == i else delta.shift(cover.frame_shift(i, j))
            total = total + here.multiply_function(window)
        left_forms[i] = total
    return GluedConnection(bundle, partition, initial, left_forms)


def _global_form(forms: Mapping[int, DifferentialForm], what: str) -> DifferentialForm:
    """The one form every chart carries, when each coefficient is global.

    A global coefficient is periodic, so the form also reads the same in
    every chart after any integer frame shift."""
    first = forms[min(forms)]
    if any(form != first for form in forms.values()):
        raise GluingError(f"{what} is chart-dependent")
    if not all(coeff.is_global() for coeff in first.terms.values()):
        raise GluingError(f"{what} does not descend to the torus")
    return first


def left_curvature(connection: GluedConnection) -> DifferentialForm:
    """d of the glued left form, restricted to left tangent vectors.

    The per-chart curvatures must agree across overlaps and descend to the
    torus; for bundles built from the Cech solver with default initial data
    this returns the input 2-form bitwise.
    """
    curvatures = {i: beta.exterior_d() for i, beta in connection.left_forms.items()}
    return _global_form(curvatures, "glued curvature")


def connection_difference(a: GluedConnection, b: GluedConnection) -> DifferentialForm:
    """The global 1-form beta with a - b = pi_L*beta - pi_R*beta.

    Raises when the difference fails to be globally defined, which would
    mean one of the inputs was not a product connection on this bundle.
    """
    if set(a.left_forms) != set(b.left_forms):
        raise GluingError("connections live on different covers")
    diffs = {i: a.left_forms[i] - b.left_forms[i] for i in a.left_forms}
    return _global_form(diffs, "connection difference")


class GluedMetric:
    """Multiplicative Hermitian structure glued from per-chart weights."""

    def __init__(self, bundle: LocalLineBundle, partition: PartitionOfUnity, weight: ChartFunction):
        self.bundle = bundle
        self.partition = partition
        self.weight = weight  # glued left weight, a single global function

    def compatible_connection_witness(self) -> tuple[DifferentialForm, ChartFunction]:
        """The metric-compatible correction (1/2) d(h)/h, in cleared form:
        the numerator (1/2) dh and the denominator h."""
        dh = DifferentialForm.from_function(self.bundle.torus, self.weight).exterior_d()
        return dh.scale(Fraction(1, 2)), self.weight


def glue_hermitian(
    bundle: LocalLineBundle,
    partition: PartitionOfUnity,
    weights: Mapping[int, ChartFunction],
) -> GluedMetric:
    """Glue per-chart positive weights into a multiplicative metric.

    Weights must be real, positive (certified by an exact coefficient
    bound), and globally defined; positivity of the glued weight follows
    from rho >= 0 and sum rho = 1.
    """
    torus = bundle.torus
    if set(weights) != set(range(len(bundle.cover.charts))):
        raise GluingError("one weight per chart is required")
    for i, h in weights.items():
        if h.space != torus.space:
            raise GluingError("weights live on the wrong chart")
        if not h.is_real():
            raise GluingError(f"weight {i} is not real")
        if not h.is_global():
            raise GluingError(
                "chart-local weights cannot glue consistently without exact "
                "support control; use globally defined weights"
            )
        c0 = Fraction(0)
        tail = Fraction(0)
        for (mon, freq), c in h.terms.items():
            if all(k == 0 for k in freq):
                c0 = c.re.as_fraction()
            else:
                tail += abs(c.re.as_fraction()) + abs(c.im.as_fraction())
        if c0 <= tail:
            raise GluingError(f"weight {i} fails the positivity certificate")
    glued = ChartFunction.zero(torus.space)
    for i, h in sorted(weights.items()):
        glued = glued + partition.window(i) * h
    return GluedMetric(bundle, partition, glued)


@dataclass(frozen=True)
class ChernClassResult:
    cohomology_class: CohomologyClass
    coefficient: Scalar
    is_integral: bool


def chern_class(
    bundle: LocalLineBundle,
    connection: GluedConnection | None = None,
) -> ChernClassResult:
    """[omega / 2*pi] as an exact class; integral iff theta is in 2*pi*Z.

    The returned representative is the canonical constant-coefficient one
    (the integral pairing times the volume generator), so the output does
    not depend on the partition of unity used for the connection: exact
    parts of the curvature integrate away.
    """
    if not isinstance(bundle, LocalLineBundle):
        raise TypeError(f"chern_class needs a LocalLineBundle, not {type(bundle).__name__}")
    if connection is not None and not isinstance(connection, GluedConnection):
        raise TypeError(
            f"chern_class needs a GluedConnection or None, not {type(connection).__name__}"
        )
    if connection is None:
        partition = PartitionOfUnity.for_grid(bundle.cover)
        connection = glue_multiplicative_connection(bundle, partition)
    elif connection.bundle is not bundle:
        raise GluingError("the connection is glued on a different bundle")
    curv = left_curvature(connection)
    coefficient = curv.scale(Scalar.pi(-1, Fraction(1, 2))).integrate()
    torus = bundle.torus
    generator = DifferentialForm.basis(torus, *torus.covectors)
    cls = CohomologyClass(torus, (generator.scale(coefficient),))
    return ChernClassResult(cls, coefficient, coefficient.is_integer())
