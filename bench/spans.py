"""In-memory span tracer that wraps starbundle's layer modules from outside.

``Tracer.install`` replaces the public functions of each layer module with
timing wrappers: the public methods and arithmetic operators of the classes a
module defines, and its public module functions at every place a loaded
``starbundle`` module binds them.  ``uninstall`` puts the originals back, so
an untraced op runs exactly the library's code.

A span is (name, parent, start, end), kept in flat arrays.  Self time is a
span's duration minus the durations of its child spans; work the tracer does
itself after a call (the size observers) is recorded as a ``trace:observe``
child span, so it is charged to no layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYER_OF_MODULE = {
    "starbundle.scalar": "scalar",
    "starbundle.chartfn": "chartfn",
    "starbundle.forms": "forms",
    "starbundle.star": "star",
    "starbundle.series": "star",
    "starbundle.poisson": "star",
    "starbundle.cover": "cover",
    "starbundle.cech": "cech",
    "starbundle.bundle": "bundle",
    "starbundle.gluing": "gluing",
    "starbundle.index": "index",
}

OPERATORS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__truediv__",
)

OP_SPAN = "op"
OBSERVE_SPAN = "trace:observe"


# per-op call counts: metric -> span names
COUNTS = {
    "scalar.init.calls": ("scalar:Scalar.__init__",),
    "scalar.mul.calls": ("scalar:Scalar.__mul__", "scalar:Scalar.__rmul__"),
    "scalar.add.calls": ("scalar:Scalar.__add__", "scalar:Scalar.__radd__"),
    "scalar.cmul.calls": ("scalar:CScalar.__mul__", "scalar:CScalar.__rmul__"),
    "chartfn.mul.calls": ("chartfn:ChartFunction.__mul__", "chartfn:ChartFunction.__rmul__"),
    "chartfn.add.calls": ("chartfn:ChartFunction.__add__", "chartfn:ChartFunction.__radd__"),
    "chartfn.derive.calls": ("chartfn:ChartFunction.derive",),
    "chartfn.shift.calls": ("chartfn:ChartFunction.shift",),
    "chartfn.embed.calls": ("chartfn:ChartFunction.embed",),
    "forms.wedge.calls": ("forms:DifferentialForm.wedge",),
    "forms.exterior_d.calls": ("forms:DifferentialForm.exterior_d",),
    "forms.shift.calls": ("forms:DifferentialForm.shift",),
    "forms.multiply_function.calls": ("forms:DifferentialForm.multiply_function",),
    "star.multiply.calls": ("star:PureStarProduct.multiply",),
    "star.bidiff.calls": ("star:PureStarProduct.bidiff",),
}

# per-op self time of whole layers
LAYER_SELF = {
    "scalar.self_s": "scalar",
    "chartfn.self_s": "chartfn",
    "forms.self_s": "forms",
    "star.self_s": "star",
}

# per-op self time of single functions
FUNCTION_SELF = {
    "chartfn.shift.self_s": ("chartfn:ChartFunction.shift",),
    "star.bidiff.self_s": ("star:PureStarProduct.bidiff",),
}

# per-op inclusive time of the pipeline stages the op calls directly
STAGES = {
    "cover.grid_s": "cover:GoodCover.grid",
    "cech.solve_cech_s": "cech:solve_cech",
    "bundle.build_s": "bundle:build_local_line_bundle",
    "bundle.triple_assoc_s": "bundle:LocalLineBundle.check_triple_associativity",
    "gluing.partition_s": "gluing:PartitionOfUnity.for_grid",
    "gluing.glue_s": "gluing:glue_multiplicative_connection",
    "gluing.left_curvature_s": "gluing:left_curvature",
    "gluing.chern_class_s": "gluing:chern_class",
    "index.twisted_index_s": "index:twisted_index",
}


class Sizes:
    """Size counters fed by the observers; plain numbers, so ``copy.copy``
    takes a snapshot."""

    def __init__(self):
        self.pi_pow_max = 0
        self.den_bits_max = 0
        self.terms_out_max = 0
        self.fill_out = 0
        self.fill_in = 0
        self.bidiff_calls = 0
        self.bidiff_zero = 0

    def scalar_init(self, args, result):
        for m, q in args[0].terms.items():
            if abs(m) > self.pi_pow_max:
                self.pi_pow_max = abs(m)
            bits = q.denominator.bit_length()
            if bits > self.den_bits_max:
                self.den_bits_max = bits

    def chartfn_out(self, args, result):
        n = len(result.terms)
        if n > self.terms_out_max:
            self.terms_out_max = n

    def chartfn_mul(self, args, result):
        self.chartfn_out(args, result)
        a, b = args
        if hasattr(b, "terms") and hasattr(b, "space"):
            self.fill_out += len(result.terms)
            self.fill_in += len(a.terms) * len(b.terms)

    def bidiff(self, args, result):
        self.bidiff_calls += 1
        self.bidiff_zero += result.is_zero()

    def observers(self) -> dict:
        return {
            "scalar:Scalar.__init__": self.scalar_init,
            "chartfn:ChartFunction.__mul__": self.chartfn_mul,
            "chartfn:ChartFunction.__rmul__": self.chartfn_mul,
            "chartfn:ChartFunction.__add__": self.chartfn_out,
            "chartfn:ChartFunction.__radd__": self.chartfn_out,
            "chartfn:ChartFunction.derive": self.chartfn_out,
            "chartfn:ChartFunction.shift": self.chartfn_out,
            "chartfn:ChartFunction.embed": self.chartfn_out,
            "star:PureStarProduct.bidiff": self.bidiff,
        }

    def metrics(self) -> dict:
        return {
            "scalar.pi_pow.max": self.pi_pow_max,
            "scalar.den_bits.max": self.den_bits_max,
            "chartfn.terms_out.max": self.terms_out_max,
            "chartfn.mul.fill_ratio": self.fill_out / self.fill_in if self.fill_in else 0.0,
            "star.bidiff.zero_ratio": (
                self.bidiff_zero / self.bidiff_calls if self.bidiff_calls else 0.0
            ),
        }


def _targets(modules: dict):
    """Yield (owner, attribute, function, span name, is_static) to patch."""
    for modname, layer in LAYER_OF_MODULE.items():
        module = modules[modname]
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == modname:
                name = f"{layer}:{attr}"
                for other in modules.values():
                    for oattr, oobj in vars(other).items():
                        if oobj is obj:
                            yield other, oattr, obj, name, False
            elif inspect.isclass(obj) and obj.__module__ == modname:
                for mattr, member in vars(obj).items():
                    if mattr.startswith("_") and mattr not in OPERATORS:
                        continue
                    static = isinstance(member, staticmethod)
                    fn = member.__func__ if static else member
                    if inspect.isfunction(fn):
                        yield obj, mattr, fn, f"{layer}:{obj.__name__}.{mattr}", static


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.sizes = Sizes()
        self._patches: list[tuple[object, str, object, object]] = []
        self._op_start = 0
        self._first_op: tuple | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, observe):
        nid, oid = self._id(name), self._id(OBSERVE_SPAN)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                oidx = len(starts)
                names.append(oid)
                parents.append(stack[-1])
                starts.append(clock())
                ends.append(0.0)
                observe(args, result)
                ends[oidx] = clock()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Patch the wrappers in; the first call builds them from the loaded
        ``starbundle`` modules."""
        if not self._patches:
            modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "starbundle"}
            observers = self.sizes.observers()
            wrappers: dict = {}
            for owner, attr, fn, name, static in list(_targets(modules)):
                if (fn, name) not in wrappers:
                    wrappers[fn, name] = self._wrap(fn, name, observers.get(name))
                new = wrappers[fn, name]
                self._patches.append(
                    (owner, attr, vars(owner)[attr], staticmethod(new) if static else new)
                )
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- ops ------------------------------------------------------------------

    def begin_op(self) -> None:
        self._op_start = len(self.start)
        self.name.append(self._id(OP_SPAN))
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(self._op_start)
        self.start.append(time.perf_counter())

    def end_op(self) -> "OpSummary":
        """Close the op span and summarize it.  The spans of the first op are
        kept for ``write``; later ops' spans are dropped once summarized."""
        i0 = self._op_start
        self.end[i0] = time.perf_counter()
        self.stack.pop()
        summary = OpSummary(self, i0)
        if self._first_op is None:
            self._first_op = (i0, len(self.start))
        else:
            for arr in (self.name, self.parent, self.start, self.end):
                del arr[i0:]
        return summary

    def write(self, path) -> None:
        """Write the spans of the first traced op as a compressed npz: span
        names, parent indices (-1 for the op) and start/end seconds from the
        op's start."""
        if self._first_op is None:
            return
        lo, hi = self._first_op
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16)[lo:hi],
            parent=np.where(parent >= 0, parent - lo, -1),
            start=np.frombuffer(self.start, dtype=np.float64)[lo:hi] - self.start[lo],
            end=np.frombuffer(self.end, dtype=np.float64)[lo:hi] - self.start[lo],
        )


class OpSummary:
    """Per-name call counts, self times and top-level stage times of one op."""

    def __init__(self, tracer: Tracer, i0: int):
        n_names = len(tracer.names)
        name = np.frombuffer(tracer.name, dtype=np.uint16)[i0:].astype(np.int64)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)[i0:] - i0
        dur = (
            np.frombuffer(tracer.end, dtype=np.float64)[i0:]
            - np.frombuffer(tracer.start, dtype=np.float64)[i0:]
        )
        inner = parent >= 0
        self_time = dur - np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self.names = tracer.names
        self._ids = tracer._ids
        self.wall = float(dur[0])
        self.calls = np.bincount(name, minlength=n_names)
        self.self_time = np.bincount(name, weights=self_time, minlength=n_names)
        top = parent == 0
        self.stage_time = np.bincount(name[top], weights=dur[top], minlength=n_names)

    def _sum(self, table, names) -> float:
        return float(sum(table[self._ids[n]] for n in names if n in self._ids))

    def counts(self) -> dict:
        return {m: int(self._sum(self.calls, spans)) for m, spans in COUNTS.items()}

    def times(self) -> dict:
        out = {}
        for metric, layer in LAYER_SELF.items():
            spans = [n for n in self.names if n.split(":")[0] == layer]
            out[metric] = self._sum(self.self_time, spans)
        for metric, spans in FUNCTION_SELF.items():
            out[metric] = self._sum(self.self_time, spans)
        for metric, span in STAGES.items():
            out[metric] = self._sum(self.stage_time, [span])
        return out
