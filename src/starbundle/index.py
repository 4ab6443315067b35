"""The twisted index pairing at the cohomological level.

An elliptic element enters through the Thom-pushed Chern data of its symbol
class: an even class gamma on the base.  The twisted index is the exact
pairing

    ind(a) = integral_X  gamma ^ Td(X) ^ exp(omega / 2*pi)

which reduces to the untwisted integer pairing at omega = 0 and is
insensitive to exact-form perturbations.  For integral classes it agrees
with honest line-bundle twisting; tensor consistency is decided against the
line bundle glued from the Cech datum, not against the formula itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundle import LocalLineBundle
from .cohomology import CohomologyClass, exp_twist, todd_class
from .forms import DifferentialForm
from .gluing import chern_class
from .manifold import Manifold, Sphere2, Torus
from .report import CheckReport
from .scalar import Scalar

SUPPORTED = "Torus(2), Torus(4), Sphere2"


def _check_supported(manifold: Manifold):
    if isinstance(manifold, Torus) and manifold.n in (2, 4):
        return
    if isinstance(manifold, Sphere2):
        return
    raise ValueError(f"index pairing supports {SUPPORTED}")


class EllipticSymbolClass:
    """Ranks plus Thom-pushed Chern data of an elliptic symbol."""

    __slots__ = ("rank_e", "rank_f", "gamma")

    def __init__(self, rank_e: int, rank_f: int, gamma: CohomologyClass):
        for rank in (rank_e, rank_f):
            if not isinstance(rank, int):
                raise TypeError(f"rank must be an int, not {type(rank).__name__}")
        if rank_e != rank_f:
            raise ValueError("ellipticity forces equal ranks")
        if rank_e < 0:
            raise ValueError("ranks are nonnegative")
        deg0 = gamma.component(0)
        if not deg0.is_zero():
            value = deg0.terms[()].constant_value()
            if not value.is_real() or not value.re.is_integer():
                raise ValueError("degree-0 part of the pushed class must be integral")
        object.__setattr__(self, "rank_e", rank_e)
        object.__setattr__(self, "rank_f", rank_f)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("EllipticSymbolClass is immutable")

    @staticmethod
    def identity(manifold: Manifold, rank: int = 1) -> "EllipticSymbolClass":
        return EllipticSymbolClass(rank, rank, CohomologyClass.zero(manifold))

    @staticmethod
    def on_torus2(
        manifold: Torus, d: int | Fraction | Scalar, e: int | Fraction | Scalar, rank: int = 1
    ) -> "EllipticSymbolClass":
        """gamma = d*1 + e*vol on Torus(2)."""
        if manifold.n != 2:
            raise ValueError("on_torus2 expects Torus(2)")
        vol = DifferentialForm.basis(manifold, *manifold.covectors)
        gamma = CohomologyClass(
            manifold,
            (
                DifferentialForm.constant(manifold, Scalar.coerce(d)),
                vol.scale(Scalar.coerce(e)),
            ),
        )
        return EllipticSymbolClass(rank, rank, gamma)


@dataclass(frozen=True)
class IndexResult:
    value: Scalar
    by_degree: tuple[tuple[int, Scalar], ...]
    is_integer: bool


def twisted_index(
    a: EllipticSymbolClass, omega: DifferentialForm | None, manifold: Manifold
) -> IndexResult:
    """ind(a) = integral gamma ^ Td ^ exp(omega/2*pi), exactly."""
    if not isinstance(a, EllipticSymbolClass):
        raise TypeError(f"twisted_index needs an EllipticSymbolClass, not {type(a).__name__}")
    if omega is not None and not isinstance(omega, DifferentialForm):
        raise TypeError(f"omega must be a DifferentialForm or None, not {type(omega).__name__}")
    _check_supported(manifold)
    if a.gamma.manifold != manifold:
        raise ValueError("symbol class lives on a different manifold")
    td = todd_class(manifold)
    if omega is None:
        twist = CohomologyClass.unit(manifold)
    else:
        if omega.manifold != manifold:
            raise ValueError("twisting form lives on a different manifold")
        twist = exp_twist(omega)
    weight = td.cup(twist)
    by_degree = []
    total = Scalar.zero()
    for degree in range(0, manifold.dim + 1, 2):
        part = CohomologyClass(manifold, (a.gamma.component(degree),))
        if part.is_zero():
            continue
        contribution = part.cup(weight).integrate()
        by_degree.append((degree, contribution))
        total = total + contribution
    return IndexResult(total, tuple(by_degree), total.is_integer())


def check_homotopy_invariance(
    a: EllipticSymbolClass,
    omega: DifferentialForm | None,
    manifold: Manifold,
    beta: DifferentialForm,
    target: str | int = "omega",
) -> CheckReport:
    """Perturb a representative by d(beta) and require bitwise equality.

    ``beta`` is the demanded primitive witness; its exterior derivative is
    the perturbation.  ``target`` is "omega" or the gamma degree to perturb.
    """
    if target != "omega" and (not isinstance(target, int) or isinstance(target, bool)):
        raise ValueError(f'target must be "omega" or an int degree, not {target!r}')
    if beta.manifold != manifold:
        raise ValueError("witness lives on a different manifold")
    perturbation = beta.exterior_d()
    before = twisted_index(a, omega, manifold)
    if target == "omega":
        if omega is None:
            raise ValueError("no twisting form to perturb")
        if not perturbation.is_homogeneous(2):
            raise ValueError("witness must be a 1-form to perturb omega")
        after = twisted_index(a, omega + perturbation, manifold)
    else:
        if not perturbation.degrees() or set(perturbation.degrees()) != {target}:
            raise ValueError(f"witness derivative is not homogeneous of degree {target}")
        gamma = CohomologyClass(
            manifold,
            tuple(a.gamma.components) + (perturbation,),
        )
        perturbed = EllipticSymbolClass(a.rank_e, a.rank_f, gamma)
        after = twisted_index(perturbed, omega, manifold)
    # both values are kept in the metrics; when they differ, the pair is the witness too
    metrics = {"before": str(before.value), "after": str(after.value)}
    failures = [] if before.value == after.value else [metrics]
    return CheckReport("homotopy_invariance", 1, failures, metrics)


def check_tensor_consistency(a: EllipticSymbolClass, bundle: LocalLineBundle) -> CheckReport:
    """Twisting by the bundle's omega equals tensoring by the honest bundle L.

    The twisted side is ``twisted_index(a, omega)``.  The honest side is
    integral gamma ^ (1 + c1(L)), with Td(T^2) = 1 and c1(L) from
    ``chern_class``, which integrates the curvature of the connection glued
    from the Cech datum; it calls none of ``twisted_index``, ``exp_twist``
    or ``todd_class``.  The check fails when c1(L) is not integral, since no
    honest bundle exists then, and when the two sides differ; each witness
    holds c1.
    """
    torus = bundle.torus
    if a.gamma.manifold != torus:
        raise ValueError("symbol class lives on a different manifold than the bundle")
    twisted = twisted_index(a, bundle.data.omega, torus).value
    c1 = chern_class(bundle)
    honest = a.gamma.cup(CohomologyClass.unit(torus) + c1.cohomology_class).integrate()
    metrics = {"c1": str(c1.coefficient), "twisted": str(twisted), "honest": str(honest)}
    failures = []
    if not c1.is_integral:
        failures.append({"identity": "integral_c1", "c1": metrics["c1"]})
    if twisted != honest:
        failures.append({"identity": "twisted_equals_honest", **metrics})
    return CheckReport("tensor_consistency", 2, failures, metrics)
