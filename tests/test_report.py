"""Every invariant check answers in one shape, CheckReport.

The fixtures are the passing and failing inputs the module tests already
use: solved descent data, a transition tampered with a quadratic term,
alpha_0 + dy, a missing alpha_3, a missing or extra triple constant, a
nerve pair with no transition and a fractional theta.
"""

import ast
import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from starbundle import CheckReport
from starbundle.bundle import LocalLineBundle, build_local_line_bundle
from starbundle.cech import CechConnectionData, constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cover import GoodCover
from starbundle.forms import DifferentialForm
from starbundle.gluing import (
    GluedConnection,
    PartitionOfUnity,
    glue_multiplicative_connection,
)
from starbundle.index import (
    EllipticSymbolClass,
    check_homotopy_invariance,
    check_tensor_consistency,
)
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)
COVER = GoodCover.grid(T2, 3)
THETA = Scalar.rational(Fraction(3, 7))
DY = DifferentialForm.basis(T2, "dy")


def solved(theta=THETA):
    return solve_cech(constant_two_form(T2, theta), COVER)


def tampered():
    data = solved()
    i, j, _ = data.cover.triples[0]
    y = ChartFunction.variable(T2.space, "y")
    transitions = dict(data.transitions)
    transitions[(i, j)] = transitions[(i, j)] + (y * y).scale(Fraction(1, 5))
    return CechConnectionData(COVER, data.omega, data.alphas, transitions, data.triple_constants)


def alpha0_plus_dy():
    data = solved()
    alphas = dict(data.alphas)
    alphas[0] = alphas[0] + DY
    return CechConnectionData(COVER, data.omega, alphas, data.transitions, data.triple_constants)


def without_alpha3():
    data = solved()
    alphas = {i: a for i, a in data.alphas.items() if i != 3}
    return CechConnectionData(COVER, data.omega, alphas, data.transitions, data.triple_constants)


def with_constants(edit):
    data = solved()
    constants = dict(data.triple_constants)
    edit(constants)
    return CechConnectionData(COVER, data.omega, data.alphas, data.transitions, constants)


def without_transition_01():
    data = solved()
    transitions = dict(data.transitions)
    del transitions[(0, 1)], transitions[(1, 0)]
    return CechConnectionData(COVER, data.omega, data.alphas, transitions, data.triple_constants)


def connection(broken=False):
    bundle = build_local_line_bundle(solved())
    partition = PartitionOfUnity.for_grid(COVER)
    conn = glue_multiplicative_connection(bundle, partition)
    if not broken:
        return conn
    left = dict(conn.left_forms)
    left[0] = left[0] + DY
    return GluedConnection(bundle, partition, conn.initial, left)


A = EllipticSymbolClass.on_torus2(T2, 2, 5)
OMEGA = constant_two_form(T2, THETA)

CASES = {
    "cech-solved": (lambda: solved().verify(), True),
    "cech-tampered": (lambda: tampered().verify(), False),
    "cech-alpha0-dy": (lambda: alpha0_plus_dy().verify(), False),
    "cech-missing-alpha3": (lambda: without_alpha3().verify(), False),
    "cech-missing-triple": (
        lambda: with_constants(lambda c: c.pop(COVER.triples[0])).verify(),
        False,
    ),
    "cech-extra-triple": (
        lambda: with_constants(lambda c: c.update({(0, 0, 0): Scalar.zero()})).verify(),
        False,
    ),
    "cech-missing-transition": (lambda: without_transition_01().verify(), False),
    "gluing-cocycle": (lambda: build_local_line_bundle(solved()).check_gluing_cocycle(), True),
    "gluing-cocycle-tampered": (lambda: LocalLineBundle(tampered()).check_gluing_cocycle(), False),
    "honest-cocycle-2pi": (
        lambda: build_local_line_bundle(solved(Scalar.pi(1, 2))).honest_cocycle_closes(),
        True,
    ),
    "honest-cocycle-3/7": (
        lambda: build_local_line_bundle(solved()).honest_cocycle_closes(),
        False,
    ),
    "consistency": (lambda: connection().consistency_report(), True),
    "consistency-dy": (lambda: connection(broken=True).consistency_report(), False),
    "homotopy": (
        lambda: check_homotopy_invariance(
            A, OMEGA, T2, DifferentialForm(T2, {(1,): ChartFunction.sine(T2.space, "x")})
        ),
        True,
    ),
    "tensor": (
        lambda: check_tensor_consistency(A, build_local_line_bundle(solved(Scalar.pi(1, 2)))),
        True,
    ),
    "tensor-3/7": (lambda: check_tensor_consistency(A, build_local_line_bundle(solved())), False),
}


@functools.cache
def report_of(case):
    return CASES[case][0]()


@pytest.mark.parametrize("case", CASES)
def test_every_check_reports_one_shape(case):
    expected = CASES[case][1]
    report = report_of(case)
    assert isinstance(report, CheckReport)
    assert report.passed == (not report.failures) == expected
    assert report.checked > 0
    json.dumps(report.failures)
    json.dumps(dict(report.metrics))


# Homotopy invariance perturbs a representative by an exact form, which no
# correct index pairing can see, so no input is meant to fail it.  Every
# other check, tensor consistency included, has an input that fails it, and
# a check no row fails may hold for all inputs.
INDEX_CHECKS = {"homotopy_invariance"}


def test_every_data_check_has_a_failing_row():
    can_fail = {}
    for case, (_, expected) in CASES.items():
        name = report_of(case).name
        can_fail[name] = can_fail.get(name, False) or not expected
    assert INDEX_CHECKS <= can_fail.keys()
    never_fail = [name for name, fails in can_fail.items() if not fails and name not in INDEX_CHECKS]
    assert not never_fail, f"no row expects these checks to fail: {never_fail}"


def test_report_rejects_values_json_cannot_hold():
    with pytest.raises(TypeError):
        CheckReport("exact", 1, [{"constant": Scalar.pi()}])
    with pytest.raises(TypeError):
        CheckReport("exact", 1, metrics={"index": [Fraction(1, 3)]})
    report = CheckReport("plain", 2, [{"pair": (0, 1), "missing": True}], {"value": "1/3"})
    assert not report.passed and dict(report.metrics) == {"value": "1/3"}


# -- drift guard: no check goes back to an ad hoc verdict dict ----------------

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "starbundle").glob("*.py"))
VERDICT_KEYS = {"passed", "closes", "leibniz_identity"}


def _verdict_dicts(tree: ast.Module) -> list[int]:
    """Lines of dict literals and dict(...) calls keyed by a verdict name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys = {kw.arg for kw in node.keywords}
        else:
            continue
        if keys & VERDICT_KEYS:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_ad_hoc_verdict_dicts(path):
    lines = _verdict_dicts(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} builds a verdict dict at lines {lines}; return a CheckReport"


def test_detects_a_verdict_dict():
    source = (
        "a = {'passed': ok, 'n': 1}\n"
        "b = {'closes': True}\n"
        "c = dict(leibniz_identity=True)\n"
        "d = {'checked': 1, **extra}\n"
    )
    assert _verdict_dicts(ast.parse(source)) == [1, 2, 3]
