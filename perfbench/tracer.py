"""Layer tracing for the benchmark, installed from outside the library.

The tracer wraps triprod's public functions at the module attributes their
callers resolve at call time: the names `dsl`, `decomp`, `oracle`, `cli` and
`suite` imported from other modules, the entries of `dsl.FUNCTIONS`, and in
`core` only the functions the `HNum` operators call (`add`, `sub`, `negate`,
`mul`, `scale`).  Calls inside `core` (`hnum` -> `coerce_scalar`, `unit` ->
`basis`) stay unwrapped, so those costs count as the caller's self time.

Inner calls are not kept one by one: every wrapped call adds to its layer's
call count and self time (its own duration minus the duration of the wrapped
calls it made, kept on a stack).  Only the operation spans, one per verdict or
decomposition plus one per CLI invocation, are kept as records, each with the
per-layer counts and self times accumulated inside it.

The wrapper's own work (clock reads, stack updates, the Fraction scan on
`core.mul`) is measured and reported as bookkeeping, outside every layer.
What the clock reads cannot see, the Python call into the wrapper itself,
lands in the caller's self time; the traced-minus-untraced wall time shows
the total distortion.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Layer names, in report order.  Each is reported as `<layer>.calls` and
# `<layer>.self_s` (`dsl.evaluate.calls` is reported as `dsl.evaluate.nodes`).
LAYERS = (
    "core.mul",
    "core.scale",
    "core.hnum",
    "core.other",
    "dsl.check",
    "dsl.evaluate",
    "dsl.parse",
    "suite.builtin_lines",
    "decomp.triple_ops",
    "decomp.pair_ops",
    "decomp.decompose_triple",
    "decomp.norm_formulas",
    "oracle.gram_det3",
    "cli.main",
    "cli.render",
)

# Layers whose calls are operation spans: each call is kept as a record.
SPAN_LAYERS = ("cli.main", "dsl.check")

_CORE_OTHER = (
    "add", "sub", "negate", "conj", "inner", "norm_sq", "imaginary_part",
    "real_coeff", "unit", "basis", "zero", "embed", "coerce_scalar",
    "allclose", "scalar_close",
)
# The only names looked up in core's own namespace by other code in core.
_CORE_SELF = ("add", "sub", "negate", "mul", "scale")


def layer_of_functions(tp) -> dict:
    """Map id(function) -> (function, layer) for the triprod package `tp`."""
    core, decomp, oracle, dsl, suite, cli = tp.core, tp.decomp, tp.oracle, tp.dsl, tp.suite, tp.cli
    groups = {
        "core.mul": [core.mul],
        "core.scale": [core.scale],
        "core.hnum": [core.hnum],
        "core.other": [getattr(core, name) for name in _CORE_OTHER],
        "dsl.check": [dsl.check_identity, dsl.check_identity_basis],
        "dsl.evaluate": [dsl.evaluate],
        "dsl.parse": [dsl.parse],
        "suite.builtin_lines": [suite.builtin_lines],
        "decomp.triple_ops": [decomp.acomm3, decomp.cross3, decomp.assoc3,
                              decomp.acomm3_closed, decomp.cross3_closed,
                              decomp.mirror_product, decomp.okubo_rhs],
        "decomp.pair_ops": [decomp.acomm2, decomp.cross2, decomp.expand_product2,
                            decomp.decompose_pair],
        "decomp.decompose_triple": [decomp.decompose_triple],
        "decomp.norm_formulas": [decomp.norm_sq_acomm3, decomp.norm_sq_cross3,
                                 decomp.norm_sq_assoc3],
        "oracle.gram_det3": [oracle.gram, oracle.gram_im, oracle.det3],
        "cli.main": [cli.main],
        "cli.render": [dsl.report_text, dsl.report_json_obj],
    }
    return {id(fn): (fn, layer) for layer, fns in groups.items() for fn in fns}


def _has_fraction(args) -> bool:
    for value in args:
        for c in getattr(value, "coeffs", ()):
            if type(c) is Fraction:
                return True
    return False


class Tracer:
    """Per-layer counts and self times, plus one record per operation span.

    Wrappers record only while `active` is true, so the benchmark's own
    verification code can call the library without being traced.
    """

    def __init__(self, tp):
        self.tp = tp
        self.active = False
        self.acc = {layer: [0, 0.0] for layer in LAYERS}
        self.mul_fraction_calls = [0]
        self.bookkeeping = [0.0]
        self.stack = [0.0]
        self.spans = []
        self.open_spans = []
        self._next_id = 0
        self.t_origin = time.perf_counter()
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer):
        acc = self.acc[layer]
        stack = self.stack
        book = self.bookkeeping
        clock = time.perf_counter
        tracer = self
        fractions = self.mul_fraction_calls if layer == "core.mul" else None
        spans = layer in SPAN_LAYERS

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = clock()
            if spans:
                tracer._open_span(layer)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                acc[0] += 1
                acc[1] += dur - stack.pop()
                if fractions is not None and _has_fraction(args):
                    fractions[0] += 1
                if spans:
                    tracer._close_span(t0, t1)
                t_out = clock()
                stack[-1] += t_out - t_in
                book[0] += (t_out - t_in) - dur

        traced.__wrapped__ = fn
        return traced

    def _snapshot(self):
        return [(a[0], a[1]) for a in self.acc.values()]

    def _open_span(self, name):
        parent = self.open_spans[-1][0] if self.open_spans else None
        self.open_spans.append((self._next_id, parent, name, self._snapshot()))
        self._next_id += 1

    def _close_span(self, t0, t1):
        span_id, parent, name, before = self.open_spans.pop()
        layers = {}
        for layer, (calls0, self0), a in zip(self.acc, before, self.acc.values()):
            if a[0] != calls0:
                layers[layer] = [a[0] - calls0, a[1] - self0]
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start_s": t0 - self.t_origin, "end_s": t1 - self.t_origin,
            "layers": layers,
        })

    def span(self, name, fn, *args):
        """Call `fn(*args)` as an operation span made by the benchmark itself.

        The span's own time between library calls belongs to no layer.
        """
        clock = time.perf_counter
        t_in = clock()
        self._open_span(name)
        self.stack.append(0.0)
        t0 = clock()
        try:
            return fn(*args)
        finally:
            t1 = clock()
            self.stack.pop()
            self._close_span(t0, t1)
            t_out = clock()
            self.bookkeeping[0] += (t_out - t_in) - (t1 - t0)

    # -- installation -----------------------------------------------------

    def install(self):
        """Swap every traced function for its wrapper; undone by `uninstall`."""
        tp = self.tp
        targets = layer_of_functions(tp)
        wrappers = {key: self._wrap(fn, layer) for key, (fn, layer) in targets.items()}
        for module in (tp.dsl, tp.decomp, tp.oracle, tp.cli, tp.suite):
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, name, wrappers[id(value)])
        for name in _CORE_SELF:
            self._patch(tp.core, name, wrappers[id(getattr(tp.core, name))])
        functions = tp.dsl.FUNCTIONS
        for name, (arity, sort, impl) in list(functions.items()):
            if id(impl) in wrappers:
                self._patches.append((functions, name, functions[name], True))
                functions[name] = (arity, sort, wrappers[id(impl)])

    def _patch(self, module, name, wrapper):
        self._patches.append((module, name, getattr(module, name), False))
        setattr(module, name, wrapper)

    def uninstall(self):
        while self._patches:
            obj, name, original, is_dict = self._patches.pop()
            if is_dict:
                obj[name] = original
            else:
                setattr(obj, name, original)

    # -- results ----------------------------------------------------------

    def self_total(self) -> float:
        return sum(a[1] for a in self.acc.values())
