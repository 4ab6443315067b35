"""Cech descent data for constant closed 2-forms on the 2-torus.

For omega = theta dx^dy the chart primitives are alpha_i = theta (x - a_i) dy
in lifted chart coordinates.  Transition functions are induced from the single
universal-cover potential theta * x dy with a fixed multiplier convention, so
the triple-overlap constants come out as theta times signed integer lattice
areas: they all lie in 2*pi*Z exactly when theta does, which is the honest
line-bundle criterion.

Construction from integers.  With n = pair_lift(i, j) and a the x-coordinates
of the chart centres, dx = a_j + n_x - a_i and c = -(a_j + n_x) n_y, the two
transitions of a nerve pair are the affine functions

    phi_ij = theta (dx y + c),
    phi_ji = theta (-dx y - (dx n_y + c)) = theta (-dx y + a_i n_y),

the second being (-phi_ij).shift(frame_shift(j, i)).  ``solve_cech`` writes
every coefficient as theta times one rational number, with the centres read
in the cover's integer units of 1/den (``GoodCover.lattice``) and no
function arithmetic, and reads each triple constant as T(0) (telescoping,
below).  It trusts none of this: it runs the full ``verify`` on what it
built.  ``verify`` adds translated and differentiated terms straight into
one integer ``_lincomb`` sum per identity and term key (``_shift_into``,
``_derive_into``), reading frame_shift(i, j) as the int vector
pair_lift(j, i); it builds no shifted or derived function.

Pair-once rule.  Every frame shift is an integer lattice vector and
frame_shift(j, i) = -frame_shift(i, j), since ``GoodCover`` builds both from
one pair lift; so shifting by it is an exact ring automorphism that commutes
with d, undone by the opposite shift.  ``verify`` decides antisymmetry,
phi_ji = -phi_ij.shift(frame_shift(j, i)), once per unordered nerve pair.
Where it holds, the overlap law in one direction is the law in the other
direction shifted and negated (proof: f_j - f_i.shift(d_ji) = d phi_ji
= -(d phi_ij).shift(d_ji) iff f_j.shift(d_ij) = f_i - d phi_ij), so the
overlap law is decided once and holds or fails in both directions.

Telescoping.  With d_ij = frame_shift(i, j), the lifts of a nerve triple
agree, d_ij + d_jk = d_ik (``test_nerve_matches_fraction_reference``).  So
where the overlap law holds on (i, j), (j, k) and (k, i), the triple sum
T(u) = phi_ij(u) + phi_jk(u + d_ij) + phi_ki(u + d_ik) has dT =
(f_i - f_j(u + d_ij)) + (f_j - f_k(u + d_jk))(u + d_ij) + (f_k - f_i(u - d_ik))(u + d_ik)
= 0, and only constants have d = 0.  ``verify`` compares the stored constant
with T(0) = phi_ij(0) + phi_jk(d_ij) + phi_ki(d_ik), the terms read at
integer points with phase 1, and keeps that constant as the triple's sum; a
triple with a failing pair gets its full sum.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .chartfn import ChartFunction, _chartfn, _derive_into, _lincomb, _shift_into, _value_into
from .cover import GoodCover
from .forms import DifferentialForm
from .manifold import Torus
from .report import CheckReport
from .scalar import CScalar, Scalar, _new, _reduce


class CechError(ValueError):
    """Raised when descent data violates one of its defining identities."""


def _require(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")


def _triple_sum(cover: GoodCover, transitions: Mapping, i: int, j: int, k: int) -> ChartFunction:
    """phi_ij + phi_jk + phi_ki in the frame anchored at chart i, summed in
    one dict with one reduction per output key."""
    parts: dict = {}
    for a, b in ((i, j), (j, k), (k, i)):
        if a != b:
            _shift_into(parts, transitions[(a, b)], cover.pair_lift(a, i), 1)
    return _chartfn(cover.torus.space, {key: _lincomb(p) for key, p in parts.items()})


def _sum_at_origin(cover: GoodCover, transitions: Mapping, i: int, j: int, k: int) -> CScalar:
    """T(0) for the sum T of a nerve triple, each phi_ab read at the integer
    point frame_shift(i, a) (telescoping, module docstring)."""
    parts: list = []
    for a, b in ((i, j), (j, k), (k, i)):
        _value_into(parts, transitions[(a, b)], cover.pair_lift(a, i))
    return _lincomb(parts)


def _cancels(parts: dict) -> bool:
    """Every term key of the streamed parts sums to 0."""
    return all(_lincomb(p).is_zero() for p in parts.values())


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


class CechConnectionData:
    """Per-chart 1-forms, overlap transitions, triple constants for omega.

    Immutable: the three maps are read-only views of private copies, so the
    report of ``verify`` is computed once and kept.  Two private tables
    hold what ``verify``, the glue and the bundle checks read: the triple
    sums (``triple_sum``) and, per unordered pair, whether antisymmetry
    holds.  Each is built on first use from this instance's own transitions
    and kept (``verify`` keeps T(0) for a triple it telescopes); nothing
    here can change, so no entry goes stale, and the tables die with the
    instance.
    """

    __slots__ = (
        "cover", "omega", "alphas", "transitions", "triple_constants",
        "_report", "_sums", "_antisymmetric", "__weakref__",
    )

    def __init__(
        self,
        cover: GoodCover,
        omega: DifferentialForm,
        alphas: Mapping[int, DifferentialForm],
        transitions: Mapping[tuple[int, int], ChartFunction],
        triple_constants: Mapping[tuple[int, int, int], Scalar],
    ):
        _require(cover, GoodCover, "cover")
        _require(omega, DifferentialForm, "omega")
        for what, table, kind in (
            ("primitive", alphas, DifferentialForm),
            ("transition", transitions, ChartFunction),
            ("triple constant", triple_constants, Scalar),
        ):
            for key, value in table.items():
                _require(value, kind, f"{what} {key}")
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alphas", MappingProxyType(dict(alphas)))
        object.__setattr__(self, "transitions", MappingProxyType(dict(transitions)))
        object.__setattr__(self, "triple_constants", MappingProxyType(dict(triple_constants)))
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_antisymmetric", None)

    def __setattr__(self, name, value):
        raise AttributeError("CechConnectionData is immutable")

    def __delattr__(self, name):
        raise AttributeError("CechConnectionData is immutable")

    @property
    def torus(self) -> Torus:
        return self.cover.torus

    def theta(self) -> Scalar:
        """The constant coefficient of omega against dx^dy."""
        coeff = self.omega.terms.get((0, 1))
        if coeff is None:
            return Scalar.zero()
        v = coeff.constant_value()
        if not v.is_real():
            raise CechError("omega coefficient must be real")
        return v.re

    def transition(self, i: int, j: int) -> ChartFunction:
        """phi_ij expressed in chart i's frame (identically 0 when i == j)."""
        if i == j:
            return ChartFunction.zero(self.torus.space)
        phi = self.transitions.get((i, j))
        if phi is None:
            self.cover.frame_shift(i, j)  # KeyError: charts i and j do not overlap
            raise KeyError(f"no transition for the overlapping charts {i} and {j}")
        return phi

    def triple_sum(self, i: int, j: int, k: int) -> ChartFunction:
        """phi_ij + phi_jk + phi_ki in the frame anchored at chart i."""
        total = self._sums.get((i, j, k))
        if total is None:
            for a, b in ((i, j), (j, k), (k, i)):
                self.transition(a, b)  # a KeyError names a pair off the nerve
            total = self._sums[(i, j, k)] = _triple_sum(self.cover, self.transitions, i, j, k)
        return total

    # -- verification -----------------------------------------------------

    def _antisymmetric_pairs(self) -> dict[tuple[int, int], bool]:
        """Whether phi_ji = -phi_ij.shift(frame_shift(j, i)), keyed by the
        sorted pair: decided once per pair as phi_ji + phi_ij.shift(...) = 0,
        which holds in one direction exactly when it holds in the other
        (see the module docstring); a pair with one direction missing
        fails.  Computed on the first call only."""
        if self._antisymmetric is None:
            table = {}
            for (i, j), phi in self.transitions.items():
                if _pair(i, j) not in table:
                    reverse, parts = self.transitions.get((j, i)), {}
                    if reverse is not None:  # frame_shift(j, i) is pair_lift(i, j)
                        _shift_into(parts, reverse, (0,) * self.torus.dim, 1)
                        _shift_into(parts, phi, self.cover.pair_lift(i, j), 1)
                    table[_pair(i, j)] = reverse is not None and _cancels(parts)
            object.__setattr__(self, "_antisymmetric", table)
        return self._antisymmetric

    def overlap_failures(self, forms: Mapping[int, DifferentialForm]) -> list[tuple[int, int]]:
        """The overlaps (i, j) where forms[i] - forms[j] != d(phi_ij), with
        forms[j] moved into chart i's frame, in the order of
        ``transitions``; compared coefficient by coefficient, the dx_a
        coefficient of d(phi_ij) being the partial derivative of phi_ij in
        coordinate a, and a covector index missing from a form reading 0;
        an overlap of a chart with no form fails.  Pair-once rule: on a
        pair where antisymmetry holds, overlap (j, i) holds exactly when
        (i, j) does (module docstring), so the law is decided for the first
        direction met and its verdict reported for both; elsewhere each
        direction is decided on its own."""
        origin = (0,) * self.torus.dim
        terms = {i: form.terms for i, form in forms.items()}
        antisymmetric = self._antisymmetric_pairs()
        decided: dict[tuple[int, int], bool] = {}
        failures = []
        for (i, j), phi in self.transitions.items():
            if i not in terms or j not in terms:
                failures.append((i, j))
                continue
            pair = _pair(i, j)
            fails = decided.get(pair) if antisymmetric[pair] else None
            if fails is None:
                # parts per covector index; pair_lift(j, i) is frame_shift(i, j)
                delta, parts = self.cover.pair_lift(j, i), {}
                for idx, f in terms[i].items():
                    _shift_into(parts.setdefault(idx, {}), f, origin, 1)
                for idx, f in terms[j].items():
                    _shift_into(parts.setdefault(idx, {}), f, delta, -1)
                for a in range(len(origin)):
                    _derive_into(parts.setdefault((a,), {}), phi, a, -1)
                fails = decided[pair] = not all(map(_cancels, parts.values()))
            if fails:
                failures.append((i, j))
        return failures

    def verify(self) -> CheckReport:
        """Check every descent identity; computed on the first call only."""
        if self._report is None:
            object.__setattr__(self, "_report", self._check())
        return self._report

    def _check(self) -> CheckReport:
        """Every identity of every chart, pair and triple; antisymmetry and
        the overlap law are decided once per unordered pair where the
        pair-once rule of the module docstring allows, and each verdict is
        reported for both directions, in the order of ``transitions``; a
        triple is telescoped where the module docstring allows."""
        charts = range(len(self.cover.charts))
        failures = [
            {"identity": "primitive", "chart": i, "missing": True}
            for i in charts
            if i not in self.alphas
        ]
        nerve_pairs = [p for i, j in self.cover.pairs for p in ((i, j), (j, i))]
        failures += (
            {"identity": "transition", "pair": pair, "missing": True}
            for pair in nerve_pairs
            if pair not in self.transitions
        )
        failures += (
            {"identity": "curl", "chart": i}
            for i, alpha in self.alphas.items()
            if alpha.exterior_d() != self.omega
        )
        overlaps = self.overlap_failures(self.alphas)
        failures += ({"identity": "overlap", "pair": pair} for pair in overlaps)
        antisymmetric = self._antisymmetric_pairs()
        failures += (
            {"identity": "antisymmetry", "pair": (i, j), "missing": (j, i) not in self.transitions}
            for i, j in self.transitions
            if not antisymmetric[_pair(i, j)]
        )
        nerve, space, failed = self.cover.triples, self.torus.space, set(overlaps)
        origin = ((0,) * self.torus.dim,) * 2  # the key of the constant term
        failures += (
            {"identity": "triple", "triple": t, "extra": True}
            for t in self.triple_constants
            if t not in nerve
        )
        for i, j, k in nerve:
            const = self.triple_constants.get((i, j, k))
            if const is None:
                failures.append({"identity": "triple", "triple": (i, j, k), "missing": True})
            elif {(i, j), (j, k), (k, i)} <= self.transitions.keys():  # else reported missing
                if failed.isdisjoint(((i, j), (j, k), (k, i))):  # telescoping: T = T(0)
                    value = _sum_at_origin(self.cover, self.transitions, i, j, k)
                    total = self._sums[(i, j, k)] = _chartfn(space, {origin: value})
                else:
                    total = self.triple_sum(i, j, k)
                if not (total.is_constant() and total.constant_value() == const):
                    found = {"sum": str(total), "stored": str(const)}
                    failures.append({"identity": "triple", "triple": (i, j, k), **found})
        checked = len(charts) + len(nerve_pairs) + 2 * len(self.transitions) + len(nerve)
        return CheckReport("cech_descent", checked, failures)


def _times(theta: Scalar, num: int, den: int) -> CScalar:
    """theta * num/den, canonical, for integers num and den > 0."""
    return _reduce(CScalar, theta._den * den, {m: (a * num, 0) for m, (a, _) in theta._num.items()})


def solve_cech(omega: DifferentialForm, cover: GoodCover) -> CechConnectionData:
    """Solve the descent equations for omega = theta dx^dy on Torus(2).

    Produces alpha_i with d(alpha_i) = omega, transitions with
    alpha_i - alpha_j = d(phi_ij), and constant triple sums, all exact,
    written straight from the integer pair lifts and the chart centres
    (module docstring) and then checked by the full ``verify``.
    """
    _require(omega, DifferentialForm, "omega")
    _require(cover, GoodCover, "cover")
    torus = cover.torus
    if not isinstance(omega.manifold, Torus) or omega.manifold.n != 2:
        raise CechError("the supported family lives on Torus(2)")
    if omega.manifold != torus:
        raise CechError("omega and cover live on different tori")
    if not omega.is_closed():
        raise CechError("omega must be closed")
    if any(len(idx) != 2 for idx in omega.terms):
        raise CechError("omega must be a 2-form")
    coeff = omega.terms.get((0, 1), ChartFunction.zero(torus.space))
    if not coeff.is_constant():
        raise CechError(
            "unsupported family: only constant-coefficient 2-forms are handled"
        )
    value = coeff.constant_value()
    if not value.is_real():
        raise CechError("omega must be a real form")
    theta = value.re

    space = torus.space
    origin, x_key, y_key = ((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 1), (0, 0))
    # chart centres' x-coordinates as integers a in the cover's units of 1/den
    den = cover.den
    a = [(lo + hi) // 2 for (lo, hi), _ in cover.lattice]

    slope = CScalar.coerce(theta)
    alphas = {
        i: DifferentialForm(
            torus, {(1,): _chartfn(space, {x_key: slope, origin: _times(theta, -a_i, den)})}
        )
        for i, a_i in enumerate(a)
    }
    transitions: dict[tuple[int, int], ChartFunction] = {}
    for i, j in cover.pairs:
        n_x, n_y = cover.pair_lift(i, j)
        lifted = a[j] + n_x * den  # a_j + n_x
        dx = _times(theta, lifted - a[i], den)
        c_ij, c_ji = _times(theta, -lifted * n_y, den), _times(theta, a[i] * n_y, den)
        transitions[(i, j)] = _chartfn(space, {y_key: dx, origin: c_ij})
        transitions[(j, i)] = _chartfn(space, {y_key: -dx, origin: c_ji})

    consts: dict[tuple[int, int, int], Scalar] = {}
    for triple in cover.triples:
        c = _sum_at_origin(cover, transitions, *triple)  # theta is real, so c is too
        consts[triple] = _new(Scalar, c._den, c._num)

    data = CechConnectionData(cover, omega, alphas, transitions, consts)
    report = data.verify()
    if not report.passed:  # construction is supposed to be exact
        raise AssertionError(f"descent solution failed verification: {report.failures}")
    return data


def constant_two_form(torus: Torus, theta: Scalar | int | Fraction) -> DifferentialForm:
    """theta dx^dy on Torus(2)."""
    if torus.n != 2:
        raise ValueError("constant_two_form expects Torus(2)")
    return DifferentialForm.basis(torus, *torus.covectors).scale(Scalar.coerce(theta))
