"""The benchmark's three workloads: seeded inputs, the timed op, and oracles.

Each workload draws its inputs from a fixed pool that is generated from
``POOL_SEED``; the run seed picks a stratified sample of the pool and its
order, or, for ``star-poly-assoc``, the order of the whole pool.  Every pool
entry has a committed reference digest in ``digests.json``, so every op of
every run is checked against one, whatever the run seed.  The stratified
sample keeps the cost profile of the input list the same from seed to seed
(the same number of integral and fractional Chern classes, the same mix of
truncation orders), so that a change of seed changes the values the program
sees but not how much work they are.  The polynomial triples differ in cost
by up to a factor of two with no class to stratify by, so every run of that
workload takes all of them.

The oracles are independent of the code under test: they restate the closed
forms of the paper in plain ``Fraction`` arithmetic and read results only
through public accessors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any, Callable

import canon

POOL_SEED = 8010153


@dataclass(frozen=True)
class Workload:
    """One workload.  ``pool`` and ``pick`` make plain-data entries;
    ``prepare`` turns an entry into the op's arguments, outside the timed
    region; ``op`` is the timed call; ``oracle`` returns an error message or
    None; ``canon`` gives the canonical data that the digest is taken of."""

    name: str
    pool: Callable[[], list]
    pick: Callable[[random.Random, list], list[int]]
    prepare: Callable[[Any, Any], Any]
    op: Callable[[Any, Any], Any]
    oracle: Callable[[Any, Any], str | None]
    canon: Callable[[Any, Any], Any]


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def _stratified(rng: random.Random, groups: list[tuple[list[int], int]]) -> list[int]:
    picked = [i for members, count in groups for i in rng.sample(members, count)]
    rng.shuffle(picked)
    return picked


# -- t2-pipeline ---------------------------------------------------------------

# theta = q*pi, so c1 = q/2: the first four give integral c1, the rest
# fractional c1 with denominators 2 to 8.
_T2_INTEGRAL_Q = (Fraction(2), Fraction(-2), Fraction(4), Fraction(6))
_T2_FRACTIONAL_Q = (
    Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(1, 2),
    Fraction(3, 2), Fraction(1, 4), Fraction(2, 5), Fraction(5, 3),
)


@dataclass(frozen=True)
class PipelineInput:
    q: Fraction  # theta = q*pi
    d: int  # gamma = d + e*vol
    e: int


def t2_pool() -> list[PipelineInput]:
    rng = random.Random(POOL_SEED)
    return [
        PipelineInput(q, rng.randint(1, 3), rng.randint(-2, 3))
        for q in _T2_INTEGRAL_Q + _T2_FRACTIONAL_Q
    ]


def t2_pick(rng: random.Random, pool: list) -> list[int]:
    integral = [i for i, p in enumerate(pool) if (p.q / 2).denominator == 1]
    fractional = [i for i, p in enumerate(pool) if (p.q / 2).denominator != 1]
    return _stratified(rng, [(integral, 2), (fractional, 4)])


def t2_prepare(sb, inp: PipelineInput) -> PipelineInput:
    return inp


def t2_op(sb, inp: PipelineInput) -> dict:
    torus = sb.manifold.Torus(2)
    theta = sb.scalar.Scalar.pi(1, inp.q)
    cover = sb.cover.GoodCover.grid(torus, 3)
    omega = sb.cech.constant_two_form(torus, theta)
    data = sb.cech.solve_cech(omega, cover)
    bundle = sb.bundle.build_local_line_bundle(data)
    triple = bundle.check_triple_associativity()
    partition = sb.gluing.PartitionOfUnity.for_grid(cover)
    connection = sb.gluing.glue_multiplicative_connection(bundle, partition)
    curvature = sb.gluing.left_curvature(connection)
    c1 = sb.gluing.chern_class(bundle, connection)
    symbol = sb.index.EllipticSymbolClass.on_torus2(torus, inp.d, inp.e)
    index = sb.index.twisted_index(symbol, omega, torus)
    return {
        "omega": omega,
        "data": data,
        "triple": triple,
        "connection": connection,
        "curvature": curvature,
        "c1": c1,
        "index": index,
    }


def _pi_terms(power: int, q: Fraction) -> dict[int, Fraction]:
    """``Scalar.terms`` of q*pi**power."""
    return {power: q} if q != 0 else {}


def t2_oracle(inp: PipelineInput, out: dict) -> str | None:
    """c1 == theta/2pi and index == e + d*theta/2pi, exactly."""
    c1 = inp.q / 2
    if out["c1"].coefficient.terms != _pi_terms(0, c1):
        return f"c1 = {out['c1'].coefficient}, expected {c1}"
    if out["c1"].is_integral != (c1.denominator == 1):
        return f"c1 integrality flag wrong for c1 = {c1}"
    expected = inp.e + inp.d * c1
    if out["index"].value.terms != _pi_terms(0, expected):
        return f"index = {out['index'].value}, expected {expected}"
    if not out["triple"].passed:
        return "triple associativity of the local line bundle failed"
    if canon.form(out["curvature"]) != canon.form(out["omega"]):
        return "left curvature of the glued connection differs from omega"
    return None


def t2_canon(inp: PipelineInput, out: dict) -> dict:
    data = out["data"]
    return {
        "input": [canon.frac(inp.q), inp.d, inp.e],
        "alphas": {str(i): canon.form(a) for i, a in sorted(data.alphas.items())},
        "transitions": {
            f"{i},{j}": canon.chartfn(phi) for (i, j), phi in sorted(data.transitions.items())
        },
        "triple_constants": {
            ",".join(map(str, key)): canon.scalar(v)
            for key, v in sorted(data.triple_constants.items())
        },
        "triple": [
            out["triple"].passed,
            out["triple"].triples_checked,
            out["triple"].points_per_triple,
            len(out["triple"].violations),
        ],
        "left_forms": {
            str(i): canon.form(b) for i, b in sorted(out["connection"].left_forms.items())
        },
        "curvature": canon.form(out["curvature"]),
        "c1": [
            canon.scalar(out["c1"].coefficient),
            out["c1"].is_integral,
            [canon.form(f) for f in out["c1"].cohomology_class.components],
        ],
        "index": [
            canon.scalar(out["index"].value),
            [[d, canon.scalar(v)] for d, v in out["index"].by_degree],
            out["index"].is_integer,
        ],
    }


# -- star-trig -------------------------------------------------------------------

_TRIG_MODES = 4
_TRIG_FMAX = 3
_TRIG_POOL_PER_K = 12
_TRIG_PICK = ((6, 6), (8, 3))  # (K, how many per input list)


@dataclass(frozen=True)
class TrigInput:
    a: dict  # frequency (kx, ky) -> (re, im) as Fractions
    b: dict
    K: int


def _trig_modes(rng: random.Random) -> dict:
    """A real trig polynomial: 4 modes c*e_k + conj(c)*e_{-k}, 1 <= |k_i| <= 3."""
    modes: dict = {}
    while len(modes) < 2 * _TRIG_MODES:
        k = tuple(rng.choice((-1, 1)) * rng.randint(1, _TRIG_FMAX) for _ in range(2))
        if k in modes:
            continue
        re, im = _frac(rng), _frac(rng)
        modes[k] = (re, im)
        modes[(-k[0], -k[1])] = (re, -im)
    return modes


def trig_pool() -> list[TrigInput]:
    rng = random.Random(POOL_SEED + 1)
    return [
        TrigInput(_trig_modes(rng), _trig_modes(rng), K)
        for K, _ in _TRIG_PICK
        for _ in range(_TRIG_POOL_PER_K)
    ]


def trig_pick(rng: random.Random, pool: list) -> list[int]:
    return _stratified(
        rng, [([i for i, p in enumerate(pool) if p.K == K], n) for K, n in _TRIG_PICK]
    )


def _trig_function(sb, modes: dict):
    space = sb.manifold.Torus(2).space
    CScalar = sb.scalar.CScalar
    return sb.chartfn.ChartFunction(
        space, {((0, 0), k): CScalar(re, im) for k, (re, im) in modes.items()}
    )


def trig_prepare(sb, inp: TrigInput) -> tuple:
    space = sb.manifold.Torus(2).space
    product = sb.star.PureStarProduct(sb.poisson.PoissonStructure.standard(space))
    return product, _trig_function(sb, inp.a), _trig_function(sb, inp.b), inp.K


def trig_op(sb, args: tuple):
    product, a, b, K = args
    return product.multiply(a, b, K)


def trig_expected(inp: TrigInput) -> list[dict]:
    """Order m of a*b: sum over modes of (-4 pi^2 k.Pi.l)^m / m! * a_k b_l e_{k+l}.

    Returns, per order m, frequency -> (re, im) of the coefficient of
    pi^(2m); Pi is the standard bivector, so k.Pi.l = kx*ly - ky*lx.
    """
    orders = []
    for m in range(inp.K + 1):
        acc: dict = {}
        for k, (ar, ai) in inp.a.items():
            for l, (br, bi) in inp.b.items():
                w = Fraction((-4 * (k[0] * l[1] - k[1] * l[0])) ** m, factorial(m))
                if w == 0:
                    continue
                f = (k[0] + l[0], k[1] + l[1])
                re, im = acc.get(f, (Fraction(0), Fraction(0)))
                acc[f] = (re + w * (ar * br - ai * bi), im + w * (ar * bi + ai * br))
        orders.append({f: v for f, v in acc.items() if v != (0, 0)})
    return orders


def trig_oracle(inp: TrigInput, out) -> str | None:
    if out.K != inp.K:
        return f"product truncated at {out.K}, expected {inp.K}"
    for m, expected in enumerate(trig_expected(inp)):
        got = {}
        for (mon, freq), c in out.coefficient(m).terms.items():
            if any(mon):
                return f"order {m}: polynomial term {mon} in a trig product"
            got[freq] = (c.re.terms, c.im.terms)
        want = {
            f: (_pi_terms(2 * m, re), _pi_terms(2 * m, im)) for f, (re, im) in expected.items()
        }
        if got != want:
            return f"order {m} differs from the closed form"
    return None


def trig_canon(inp: TrigInput, out) -> dict:
    def modes(d):
        return [[list(k), canon.frac(re), canon.frac(im)] for k, (re, im) in sorted(d.items())]

    return {"input": [modes(inp.a), modes(inp.b), inp.K], "product": canon.series(out)}


# -- star-poly-assoc ---------------------------------------------------------------

_POLY_NAMES = ("x1", "y1", "x2", "y2")
# Every polynomial of a degree has one monomial of each of these exponent
# shapes, so that the cost of an op varies little from one entry to the next.
_POLY_SHAPES = {
    4: ((2, 1, 1, 0), (1, 1, 1, 1), (2, 2, 0, 0)),
    5: ((2, 1, 1, 1), (3, 1, 1, 0), (2, 2, 1, 0)),
    6: ((2, 2, 1, 1), (3, 1, 1, 1), (2, 2, 2, 0)),
}
_POLY_POOL = 24
POLY_K = 4


@dataclass(frozen=True)
class PolyInput:
    triple: tuple  # three dicts: exponent 4-tuple -> Fraction


def _poly_terms(rng: random.Random, degree: int) -> dict:
    """One monomial per exponent shape of ``degree``, its exponents placed on
    the four coordinates in a random order."""
    terms: dict = {}
    for shape in _POLY_SHAPES[degree]:
        e = list(shape)
        rng.shuffle(e)
        terms[tuple(e)] = _frac(rng)
    return terms


def poly_pool() -> list[PolyInput]:
    rng = random.Random(POOL_SEED + 2)
    out = []
    for _ in range(_POLY_POOL):
        degrees = list(_POLY_SHAPES)
        rng.shuffle(degrees)
        out.append(PolyInput(tuple(_poly_terms(rng, d) for d in degrees)))
    return out


def poly_pick(rng: random.Random, pool: list) -> list[int]:
    return _stratified(rng, [(list(range(len(pool))), len(pool))])


def poly_prepare(sb, inp: PolyInput) -> tuple:
    space = sb.manifold.EuclideanChart(_POLY_NAMES).space
    product = sb.star.PureStarProduct(sb.poisson.PoissonStructure.standard(space))
    zero = (0,) * len(_POLY_NAMES)
    triple = tuple(
        sb.chartfn.ChartFunction(space, {(e, zero): q for e, q in terms.items()})
        for terms in inp.triple
    )
    return product, triple


def poly_op(sb, args: tuple):
    product, triple = args
    return sb.star.check_associativity(product, [triple], K=POLY_K)


def poly_oracle(inp: PolyInput, report) -> str | None:
    if not report.passed or report.verified_order != POLY_K or report.samples != 1:
        return (
            f"associativity report: passed={report.passed}, "
            f"verified_order={report.verified_order}, samples={report.samples}"
        )
    return None


def poly_canon(inp: PolyInput, report) -> dict:
    return {
        "input": [
            [[list(e), canon.frac(q)] for e, q in sorted(terms.items())] for terms in inp.triple
        ],
        "report": [
            report.requested_order,
            report.verified_order,
            report.samples,
            [sorted((str(k), str(v)) for k, v in viol.items()) for viol in report.violations],
        ],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("t2-pipeline", t2_pool, t2_pick, t2_prepare, t2_op, t2_oracle, t2_canon),
        Workload("star-trig", trig_pool, trig_pick, trig_prepare, trig_op, trig_oracle, trig_canon),
        Workload(
            "star-poly-assoc", poly_pool, poly_pick, poly_prepare, poly_op, poly_oracle, poly_canon
        ),
    )
}
