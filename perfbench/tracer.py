"""Span recorder that wraps grossstark's public functions from outside.

Each wrapped call records one span: name, start, end, parent span, whether
an exception left it, and an optional tag.  Spans stay in memory until the
caller writes them out; `layer_metrics` turns them into per-layer counts,
inclusive times and self times.  Nothing inside the library changes.
"""

import functools
import sys
import time

# Wrapped functions per layer; the layer is the module grossstark.<layer>.
# A dotted name is a method, recorded under the span name in METHOD_SPANS.
TARGETS = {
    "characters": ("bernoulli_number", "gen_bernoulli",
                   "BernoulliCache.__init__", "BernoulliCache.save"),
    "lfunctions": ("analytic_invariant", "kubota_leopoldt",
                   "lp_derivative_at_0", "order_probe", "lstar"),
    "padic": ("plog", "angle_bracket", "teichmuller", "hensel_sqrt",
              "cornacchia"),
    "regulator": ("find_p_unit", "gross_regulator_rank1"),
    "qexp": ("eisenstein", "hecke_T", "hecke_U", "verify_up_relation"),
    "lambdaring": ("epsilon_char", "nu_k", "pi_normalize"),
    "walgebra": ("build_W", "det", "case1_det_identity",
                 "case2_det_identity", "case3_det_identity"),
    "cli": ("main",),
}
METHOD_SPANS = {"BernoulliCache.__init__": "cache_load",
                "BernoulliCache.save": "cache_save"}
LAYERS = tuple(TARGETS)

# Cornacchia switches from exhaustive search to the descent above this 4m.
CORNACCHIA_EXHAUSTIVE_LIMIT = 10 ** 7


def _cornacchia_large(args, kwargs):
    m = kwargs["m"] if "m" in kwargs else args[1]
    return 4 * m > CORNACCHIA_EXHAUSTIVE_LIMIT


TAGS = {"padic.cornacchia": _cornacchia_large}

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, RAISED, TAG = range(6)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tag = TAGS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False,
                    tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every TARGETS function wherever a grossstark module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "grossstark" or n.startswith("grossstark."))
                   and m is not None]
        for layer, attrs in TARGETS.items():
            owner = sys.modules[f"grossstark.{layer}"]
            for attr in attrs:
                if attr in METHOD_SPANS:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(
                        f"{layer}.{METHOD_SPANS[attr]}", orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, obj, key, orig, wrapper):
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()


def layer_metrics(spans):
    """Aggregate spans into per-function and per-layer figures.

    Returns a dict with, per span name, calls, inclusive seconds (outermost
    call of that name only, so recursion is not counted twice) and tagged
    calls; and per layer, self seconds and the number of exceptions that
    left the layer.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    fn = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_raised = dict.fromkeys(LAYERS, 0)
    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".")[0]
        dur = span[END] - span[START]
        entry = fn.setdefault(name, {"calls": 0, "s": 0.0, "tagged": 0})
        entry["calls"] += 1
        entry["tagged"] += bool(span[TAG])
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            entry["s"] += dur
        layer_self[layer] += dur - child[i]
        parent = span[PARENT]
        if span[RAISED] and (parent < 0
                             or spans[parent][NAME].split(".")[0] != layer):
            layer_raised[layer] += 1
    return {"functions": fn, "self_s": layer_self, "raised": layer_raised}
