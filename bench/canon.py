"""Canonical serialization of exact results, and their sha256 digests.

Built only on public accessors (``.terms``, ``.re``/``.im``, ``.space``,
``.coefficient``), not on the library's ``to_json``, so the reference
digests stay valid when the serialization methods change or go away.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def frac(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def scalar(s) -> list:
    """Laurent polynomial in pi: sorted [power, coefficient] pairs."""
    return [[m, frac(q)] for m, q in sorted(s.terms.items())]


def cscalar(c) -> list:
    return [scalar(c.re), scalar(c.im)]


def chartfn(f) -> dict:
    return {
        "names": list(f.space.names),
        "periodic": list(f.space.periodic),
        "terms": [
            [list(mon), list(freq), cscalar(c)]
            for (mon, freq), c in sorted(f.terms.items(), key=lambda kv: kv[0])
        ],
    }


def form(w) -> dict:
    return {
        "covectors": list(w.manifold.covectors),
        "terms": [[list(idx), chartfn(f)] for idx, f in sorted(w.terms.items())],
    }


def series(s) -> list:
    return [chartfn(s.coefficient(k)) for k in range(s.K + 1)]


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
