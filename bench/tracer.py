"""Outside-in tracer: wraps public equisyz functions from the benchmark.

The package source is not modified.  Each listed function is replaced in
every ``equisyz`` module that binds it (``gradmod``, ``weyl`` and
``equivtop`` import ``divide``, ``buchberger``, ``SubmoduleGB`` and
``syzygy_basis`` by name, so patching only ``polyring`` would miss those
calls); methods are wrapped on their class.  Every call records a span
(id, parent id, name, start, end, op id) in memory; the spans are turned
into per-function calls, total and self time after the op, and written out
by the benchmark when it ends.
"""

import functools
import sys
import time

# (layer, metric name, attribute path in equisyz.<layer>)
TARGETS = [
    ("polyring", "divide", "divide"),
    ("polyring", "buchberger", "buchberger"),
    ("polyring", "SubmoduleGB", "SubmoduleGB.__init__"),
    ("polyring", "syzygy_basis", "syzygy_basis"),
    ("polyring", "quotient_hilbert_series", "quotient_hilbert_series"),
    ("gradmod", "minimized", "FPModule.minimized"),
    ("gradmod", "minimal_resolution", "minimal_resolution"),
    ("gradmod", "ext_module", "ext_module"),
    ("gradmod", "fp_kernel", "fp_kernel"),
    ("gradmod", "minimal_generating_indices", "minimal_generating_indices"),
    ("gradmod", "biduality", "biduality"),
    ("gradmod", "syzygy_order", "syzygy_order"),
    ("gradmod", "cohen_macaulay", "cohen_macaulay"),
    ("gradmod", "depth", "depth"),
    ("weyl", "ReflectionGroup", "ReflectionGroup.__init__"),
    ("weyl", "expand", "ReflectionGroup.expand"),
    ("weyl", "coinvariant_basis", "ReflectionGroup.coinvariant_basis"),
    ("weyl", "invariants", "WEquivariantFreeModule.invariants"),
    ("equivtop", "gkm_cohomology", "gkm_cohomology"),
    ("equivtop", "integrate", "integrate"),
    ("equivtop", "pairing_perfection", "pairing_perfection"),
    ("equivtop", "descend_invariants", "descend_invariants"),
    ("cli", "run", "run"),
]

SPAN_NAMES = ["%s.%s" % (layer, name) for layer, name, _ in TARGETS]
DIVIDE = "polyring.divide"


def metric_names():
    """Every per-layer metric one traced op yields, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [span + ".calls", span + ".total_s", span + ".self_s"]
        if span == DIVIDE:
            names.append(DIVIDE + ".zero_frac")
    return names + ["cli.import_s", "machine.slowdown"]


class Tracer:
    """Span recorder; a span is [id, parent, name, start, end, op, zero]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name,
                    clock(), None, self.op, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if name == DIVIDE:
                span[6] = result[1].is_zero()
            return result
        return traced

    def install(self):
        """Wrap every target in every loaded equisyz module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "equisyz" or n.startswith("equisyz.")]
        for layer, name, path in TARGETS:
            owner = sys.modules["equisyz." + layer]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapped = self.wrap("%s.%s" % (layer, name), orig)
            if classes:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)


def summarize(spans, slowdown):
    """Per span name: calls, total_s (outermost calls only, so recursion is
    not counted twice) and self_s (duration minus direct traced children),
    times divided by the machine slowdown (calib.py).  polyring.divide also
    gets `zeros`, its calls with a zero remainder."""
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
    out[DIVIDE]["zeros"] = 0
    child = {}
    for s in spans:
        if s[1] is not None:
            child[s[1]] = child.get(s[1], 0.0) + (s[4] - s[3])
    for s in spans:
        dur = (s[4] - s[3]) / slowdown
        agg = out[s[2]]
        agg["calls"] += 1
        agg["self_s"] += dur - child.get(s[0], 0.0) / slowdown
        up = s[1]  # span ids are list positions
        while up is not None and spans[up][2] != s[2]:
            up = spans[up][1]
        if up is None:
            agg["total_s"] += dur
        if s[6]:
            agg["zeros"] += 1
    return out


def op_metrics(summaries, import_s, slowdown):
    """Per-layer metrics of one op from the summaries of its commands."""
    values = {}
    for span in SPAN_NAMES:
        for key in ("calls", "total_s", "self_s"):
            values["%s.%s" % (span, key)] = sum(s[span][key] for s in summaries)
    calls = values[DIVIDE + ".calls"]
    zeros = sum(s[DIVIDE]["zeros"] for s in summaries)
    values[DIVIDE + ".zero_frac"] = zeros / calls if calls else 0.0
    values["cli.import_s"] = import_s
    values["machine.slowdown"] = slowdown
    return values
