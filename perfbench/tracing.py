"""Per-layer spans, recorded from outside storop by wrapping its functions.

``Tracer.install`` replaces each traced function with a wrapper in every
storop module that holds a reference to it (``storage`` and ``cli`` import
``head_reduce``, ``print_term`` and others by name), and replaces the traced
``__eq__`` methods on their classes. Only the outermost entry of a function
is timed: while it runs, its own module's name is pointed back at the
original, so recursion (``print_term`` calls itself by global name) runs
unwrapped and pays nothing.

A span is [name, start, end, parent index, op id]. Spans stay in memory and
are written out at the end. Self time is a span's duration minus the time
its child spans cover; work the tracer itself does inside a span (counting
term nodes, say) is recorded as a ``trace.hook`` child, so it is not billed
to the layer.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter


def _count_chars_in(tracer, name, args, result):
    tracer.add(name + ".chars", len(args[0]))


def _count_chars_out(tracer, name, args, result):
    tracer.add(name + ".chars", len(result))


def _count_steps(tracer, name, args, result):
    tracer.add(name + ".steps", result.steps)
    tracer.hook(lambda: tracer.peak("reduction.result_nodes.max", tracer.term_size(result.result)))


def _count_certificate(tracer, name, args, result):
    tracer.add(name + ".machine_steps", len(result.steps))
    tracer.add(name + ".contractions", result.total_contractions)


def _count_corpus(tracer, name, args, result):
    tracer.add(name + ".terms_built", len(result))


def _count_nodes(tracer, name, args, result):
    tracer.hook(lambda: tracer.add(name + ".nodes", args[0].node_count()))


# (metric prefix, module, attribute or Class.method, counting hook)
TARGETS = (
    ("cli.main", "storop.cli", "main", None),
    ("terms.parse_term", "storop.terms", "parse_term", _count_chars_in),
    ("terms.print_term", "storop.terms", "print_term", _count_chars_out),
    ("terms.match_holes", "storop.terms", "match_holes", None),
    ("terms.eq", "storop.terms", "Term.__eq__", None),
    ("reduction.head_reduce", "storop.reduction", "head_reduce", _count_steps),
    ("reduction.normalize", "storop.reduction", "normalize", _count_steps),
    ("reduction.beta_equiv", "storop.reduction", "beta_equiv", None),
    ("storage.certify", "storop.storage", "certify", _count_certificate),
    ("storage.theta_corpus", "storop.storage", "theta_corpus", _count_corpus),
    ("storage.behavioral_check", "storop.storage", "behavioral_check", None),
    ("formulas.parse_formula", "storop.formulas", "parse_formula", None),
    ("formulas.eq", "storop.formulas", "Formula.__eq__", None),
    ("typecheck.read_derivation", "storop.typecheck", "read_derivation", None),
    ("typecheck.check_derivation", "storop.typecheck", "check_derivation", _count_nodes),
    ("typecheck.context_eq", "storop.typecheck", "Context.__eq__", None),
    ("prebuilt.load_prebuilt", "storop.prebuilt", "load_prebuilt", None),
)

# counters that exist whether or not their function ran
COUNTERS = (
    "terms.parse_term.chars",
    "terms.print_term.chars",
    "reduction.head_reduce.steps",
    "reduction.normalize.steps",
    "reduction.result_nodes.max",
    "storage.certify.machine_steps",
    "storage.certify.contractions",
    "storage.theta_corpus.terms_built",
    "typecheck.check_derivation.nodes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.paused = False
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)

    # -- counters -------------------------------------------------------

    def add(self, key: str, amount) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def hook(self, fn) -> None:
        """Run the tracer's own work as a child span of the open span."""
        parent = self.stack[-1] if self.stack else -1
        start = perf_counter()
        fn()
        self.spans.append(["trace.hook", start, perf_counter(), parent, self.op])

    @contextlib.contextmanager
    def pause(self):
        """Run the benchmark's own use of storop untraced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name, fn, home, attr, count):
        tracer = self
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0] or tracer.paused:
                return fn(*args, **kwargs)
            active[0] = True
            if home is not None:
                setattr(home, attr, fn)
            spans, stack = tracer.spans, tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if home is not None:
                    setattr(home, attr, wrapper)
                active[0] = False
            if count is not None:
                count(tracer, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        self.term_size = importlib.import_module("storop.terms").term_size
        for name, module_name, attr, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrapper(name, cls.__dict__[method], None, None, count))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrapper(name, fn, module, attr, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "storop" or mod_name.startswith("storop."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    # -- results --------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            name = span[0]
            if name == "trace.hook":
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
        out.update(self.counters)
        steps = out["reduction.head_reduce.steps"] + out["reduction.normalize.steps"]
        kernel_s = out["reduction.head_reduce.self_s"] + out["reduction.normalize.self_s"]
        out["reduction.steps_per_s"] = steps / kernel_s if kernel_s > 0 else 0.0
        built = out["storage.theta_corpus.terms_built"]
        checks = out["storage.behavioral_check.calls"]
        out["storage.corpus.used_ratio"] = checks / built if built else 0.0
        return out

    def write(self, path) -> None:
        """Spans as CSV: name, start and end (s, from the first span), parent, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")
