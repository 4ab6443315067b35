"""Local circle functions near the diagonal and their closed 1-forms.

A local circle function on a torus is A(x, y) = exp(2*pi*i*Phi(x~, y~))
where Phi is a polynomial in lifted coordinates, defined for |x~ - y~|
small.  The multiplicative cocycle A(x,y)A(y,z) = A(x,z) holds iff the
additive defect of Phi is a constant integer; the extracted 1-form
(1/2*pi*i) A^{-1} d_x A = d_{x~} Phi is then closed and y-independent, and
its lattice periods realize the degree-1 real cohomology class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chartfn import ChartFunction
from .forms import DifferentialForm
from .manifold import Torus
from .report import CheckReport
from .scalar import Scalar


def _integer_defect(f: ChartFunction) -> str | None:
    """Why f is not a constant rational integer, or None when it is."""
    if not f.is_constant():
        return f"nonconstant: {f}"
    v = f.constant_value()
    if not v.is_real():
        return f"non-real constant: {v}"
    if not v.re.is_integer():
        return f"non-integer constant: {v.re}"
    return None


@dataclass(frozen=True)
class LocalCircleFunction:
    """exp(2*pi*i*Phi) near the diagonal of M x M, M a torus."""

    torus: Torus
    phi: ChartFunction
    delta: Fraction = Fraction(1, 4)

    def __post_init__(self):
        pair = self.torus.space.copies(2)
        if self.phi.space != pair:
            raise ValueError("phase must live on the doubled torus chart")
        if not self.phi.is_polynomial():
            raise ValueError("phase must be a lifted polynomial")
        if not all(c.is_real() for c in self.phi.terms.values()):
            raise ValueError("phase must be real")
        if not 0 < self.delta <= Fraction(1, 2):
            raise ValueError("validity radius must lie in (0, 1/2]")

    @staticmethod
    def from_slopes(torus: Torus, slopes) -> "LocalCircleFunction":
        """The canonical family Phi = sum_i c_i (x~_i - y~_i)."""
        pair = torus.space.copies(2)
        phi = ChartFunction.zero(pair)
        for name, c in zip(torus.names, slopes):
            left = ChartFunction.variable(pair, f"{name}_1")
            right = ChartFunction.variable(pair, f"{name}_2")
            phi = phi + (left - right).scale(Scalar.coerce(c))
        return LocalCircleFunction(torus, phi)

    # -- cocycle verification ------------------------------------------------

    def cocycle_defect(self) -> ChartFunction:
        """Phi(x,y) + Phi(y,z) - Phi(x,z) on the tripled chart."""
        base = self.torus.space
        triple = base.copies(3)
        f12 = self.phi.embed(triple, base.pair_map(1, 2))
        f23 = self.phi.embed(triple, base.pair_map(2, 3))
        f13 = self.phi.embed(triple, base.pair_map(1, 3))
        return f12 + f23 - f13

    def diagonal_value(self) -> ChartFunction:
        return self.phi.embed(self.phi.space, {f"{n}_1": f"{n}_2" for n in self.torus.names})

    def inverse_defect(self) -> ChartFunction:
        """Phi(x,y) + Phi(y,x); integrality makes A(x,y)A(y,x) = 1."""
        swap = {}
        for name in self.torus.names:
            swap[f"{name}_1"] = f"{name}_2"
            swap[f"{name}_2"] = f"{name}_1"
        return self.phi + self.phi.embed(self.phi.space, swap)

    def lattice_defects(self) -> list[ChartFunction]:
        """Phi(x+e, y+e) - Phi(x, y) for each lattice generator e."""
        out = []
        for name in self.torus.names:
            shifted = self.phi.shift({f"{name}_1": Fraction(1), f"{name}_2": Fraction(1)})
            out.append(shifted - self.phi)
        return out


def check_circle_cocycle(a: LocalCircleFunction) -> CheckReport:
    """The diagonal value, cocycle and inverse defects and lattice-shift
    defects of Phi are all constant integers."""
    cases = [
        ("diagonal", a.diagonal_value()),
        ("cocycle-defect", a.cocycle_defect()),
        ("inverse", a.inverse_defect()),
    ]
    cases += [(f"lattice-shift-{n}", d) for n, d in zip(a.torus.names, a.lattice_defects())]
    failures = []
    for identity, f in cases:
        detail = _integer_defect(f)
        if detail is not None:
            failures.append({"identity": identity, "detail": detail})
    return CheckReport("circle_cocycle", len(cases), failures)


def one_form_from_circle(a: LocalCircleFunction) -> DifferentialForm:
    """alpha = d_{x~} Phi restricted to the diagonal; exact and closed.

    Raises when the cocycle fails, when the derivative retains second-slot
    dependence, or when the candidate is not a genuine torus form.
    """
    report = check_circle_cocycle(a)
    if not report.passed:
        raise ValueError(f"not a local circle function: {report.failures}")
    base = a.torus.space
    pair = base.copies(2)
    coeffs = {}
    for i, name in enumerate(base.names):
        d = a.phi.derive(f"{name}_1")
        # y-independence is forced by the cocycle; verify structurally
        for (mon, freq), _c in d.terms.items():
            for j, other in enumerate(pair.names):
                if other.endswith("_2") and (mon[j] != 0 or freq[j] != 0):
                    raise ValueError("derivative depends on the second slot")
        # second-slot exponents are verified zero, so collapsing both copies
        # onto the base coordinate is a faithful restriction to the diagonal
        mapping = {f"{n}_1": n for n in base.names}
        mapping.update({f"{n}_2": n for n in base.names})
        back = d.embed(base, mapping)
        if not back.is_constant():
            # a nonconstant polynomial coefficient cannot descend to the torus
            raise ValueError(f"extracted coefficient is not globally defined: {back}")
        coeffs[(i,)] = back
    alpha = DifferentialForm(a.torus, coeffs)
    if not alpha.is_closed():
        raise AssertionError("extracted 1-form failed the closedness check")
    return alpha


def h1_class(a: LocalCircleFunction) -> tuple[Scalar, ...]:
    """Periods of the extracted 1-form over the lattice generators."""
    alpha = one_form_from_circle(a)
    periods = []
    for i, _name in enumerate(a.torus.names):
        coeff = alpha.terms.get((i,))
        if coeff is None:
            periods.append(Scalar.zero())
        else:
            v = coeff.constant_value()
            if not v.is_real():
                raise AssertionError("period is not real")
            periods.append(v.re)
    return tuple(periods)


@dataclass(frozen=True)
class RealAdditiveFunction:
    """beta(x,y) real near the diagonal with beta(x,y)+beta(y,z) = beta(x,z)."""

    torus: Torus
    beta: ChartFunction
    delta: Fraction = Fraction(1, 4)

    def __post_init__(self):
        pair = self.torus.space.copies(2)
        if self.beta.space != pair:
            raise ValueError("beta must live on the doubled torus chart")
        if not self.beta.is_polynomial():
            raise ValueError("beta must be a lifted polynomial")
        if not all(c.is_real() for c in self.beta.terms.values()):
            raise ValueError("beta must be real-valued")
        host = LocalCircleFunction(self.torus, self.beta, self.delta)
        if not host.cocycle_defect().is_zero():
            raise ValueError("beta fails the exact additivity condition")
        for defect in host.lattice_defects():
            if not defect.is_zero():
                raise ValueError("beta is not well-defined near the diagonal of M^2")

    @staticmethod
    def from_slopes(torus: Torus, slopes) -> "RealAdditiveFunction":
        host = LocalCircleFunction.from_slopes(torus, slopes)
        return RealAdditiveFunction(torus, host.phi)

    def periods(self) -> tuple[Scalar, ...]:
        host = LocalCircleFunction(self.torus, self.beta, self.delta)
        return h1_class(host)


def twist_by_additive(a: LocalCircleFunction, beta: RealAdditiveFunction) -> LocalCircleFunction:
    """Replace A by e^{2*pi*i*beta} A; the class shifts by beta's periods."""
    if a.torus != beta.torus:
        raise ValueError("torus mismatch")
    return LocalCircleFunction(a.torus, a.phi + beta.beta, min(a.delta, beta.delta))
