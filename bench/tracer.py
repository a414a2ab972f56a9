"""Per-layer spans and counters for one perigee command, kept in memory.

The tracer wraps every public function of each layer module (the lru_cache
objects themselves included, so cache hits count as calls) and rebinds the
wrapper in every perigee namespace that holds the function, because modules
import names from each other and the package re-exports them.  Each wrapped
call is a span: inclusive time goes to the function (outermost call only, so
recursion is not counted twice), and the span's duration minus its child
spans goes to the layer's self time.
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numtheory", "precision", "construction", "orbits", "toral", "zeta", "cli")


class Tracer:
    def __init__(self):
        self._stack = [[0.0]]  # child time of each open span; [0] is the root
        self._depth = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()

    def _span(self, name, layer, fn):
        stack, depth = self._stack, self._depth
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_time[layer] += elapsed - frame[0]
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += elapsed

        return wrapper

    def _count_escalations(self, fn):
        """Wrap the build/predicate callable that adaptive_floor and
        adaptive_decide call once per precision they try.

        The callable is the caller's closure, so it becomes a span of the
        caller's layer: the interval arithmetic it does is not precision's
        self time.
        """
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(callable_, *args, **kwargs):
            tries = 0
            layer = callable_.__module__.rpartition(".")[2]
            span = self._span("%s.%s" % (layer, callable_.__qualname__), layer, callable_)

            def counted(bits):
                nonlocal tries
                tries += 1
                if bits > counters["max_bits"]:
                    counters["max_bits"] = bits
                return span(bits)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                counters["escalations"] += max(0, tries - 1)

        return wrapper

    def _after(self, fn, record):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result)
            return result

        return wrapper

    def _record_points(self, result):
        self.counters["points"] += result.points

    def _record_recurrence(self, result):
        self.counters["recurrence_length"] = max(
            self.counters["recurrence_length"], result.recurrence_length
        )

    def install(self):
        """Rebind every public layer function, in every perigee namespace."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules["perigee." + layer]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = "%s.%s" % (layer, attr)
                span = self._span(name, layer, obj)
                if name in ("precision.adaptive_floor", "precision.adaptive_decide"):
                    span = self._count_escalations(span)
                elif name == "construction.enumerate_oracle":
                    span = self._after(span, self._record_points)
                elif name == "zeta.rationality_probe":
                    span = self._after(span, self._record_recurrence)
                wrapped[id(obj)] = (obj, span)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "perigee" and not mod_name.startswith("perigee."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def report(self):
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }
