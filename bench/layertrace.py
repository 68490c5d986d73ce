"""Outside-in layer trace of the ``schoutencalc`` modules.

The wrappers live here, not in ``src/``.  :func:`install` rebinds every traced
function in each ``schoutencalc`` module that bound it by name (``wedge`` sits
in ``exterior``, ``schouten``, ``linfty`` and ``expr``, for example) and patches
``Scalar`` and ``Multivector`` methods on their classes, then checks that no
module still binds an unwrapped original.  ``linfty`` imports ``sn_antisym``
lazily from ``schouten`` at call time, so that rebinding covers it too.

A layer's self time is a call's duration minus the time of the traced calls
it made.  Calls into ``schouten`` and ``linfty`` and each benchmark case keep
one span each (name, start, end, index of the parent span) in memory for the
whole run; the hot leaves of the other modules are aggregated into
per-function counters only.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

PACKAGE = "schoutencalc"

# (module, attribute, reported stats).  A metric is named
# "<module>.<attribute>.<stat>", with dunder methods written without
# underscores ("scalars.Scalar.init").  Entries that report nothing still
# count towards their module's self_share: Fraction work in negation and the
# Cartan anchor's derivative belongs to ``scalars``.
TRACED = (
    ("graded", "shuffles", ("calls", "perms", "self_s")),
    ("graded", "koszul_sign", ("calls", "self_s")),
    ("scalars", "Scalar.__mul__", ("calls", "self_s")),
    ("scalars", "Scalar.__add__", ("calls", "self_s")),
    ("scalars", "Scalar.__init__", ("calls", "self_s")),
    ("scalars", "Scalar.__neg__", ()),
    ("scalars", "Scalar.derivative", ()),
    ("pairs", "bracket_vectors", ("calls", "self_s")),
    ("pairs", "anchor", ("calls", "self_s")),
    ("exterior", "wedge", ("calls", "self_s", "zero_ratio")),
    ("exterior", "Multivector.__init__", ("calls", "self_s")),
    ("exterior", "Multivector.__add__", ("calls", "self_s")),
    ("schouten", "sn_antisym", ("calls", "self_s", "zero_ratio")),
    ("schouten", "sn_sym", ("calls", "self_s")),
    ("linfty", "n_bracket", ("calls", "self_s", "zero_ratio")),
    ("linfty", "natural_injection", ("calls", "self_s")),
    ("linfty", "injection_morphism_residual", ("self_s",)),
    ("linfty", "weak_jacobi_residual", ("self_s",)),
)
MODULES = ("graded", "scalars", "pairs", "exterior", "schouten", "linfty")
SPAN_MODULES = frozenset({"schouten", "linfty"})
UNITS = {"calls": "count", "perms": "count", "self_s": "s", "zero_ratio": "ratio", "self_share": "ratio"}


def metric_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.replace('__', '')}"


class Tracer:
    """Span stack, kept spans and per-function counters of one traced run."""

    def __init__(self):
        # name -> [calls, self seconds, zero results, permutations yielded]
        self.stats: dict[str, list] = {}
        # (name, start, end, parent index or None); None while still open.
        self.spans: list[tuple | None] = []
        # Open calls: [seconds spent in traced children, index of nearest kept span].
        self._stack: list[list] = [[0.0, None]]

    def _enter(self, name: str | None):
        parent = self._stack[-1]
        index = parent[1]
        if name is not None:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, name, counters, frame, parent, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        elapsed = end - start
        parent[0] += elapsed
        counters[1] += elapsed - frame[0]
        if name is not None:
            self.spans[frame[1]] = (name, start, end, parent[1])

    def wrap(self, name: str, fn, *, keep_span: bool, zero_test: bool):
        counters = self.stats.setdefault(name, [0, 0.0, 0, 0])
        span_name = name if keep_span else None
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame, parent, start = enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(span_name, counters, frame, parent, start)
            counters[0] += 1
            if zero_test and result.is_zero():
                counters[2] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_shuffles(self, name: str, fn):
        """``shuffles`` returns a lazy stream: time each ``next`` and count permutations."""
        counters = self.stats.setdefault(name, [0, 0.0, 0, 0])
        enter, exit_ = self._enter, self._exit

        def stream(iterator):
            while True:
                frame, parent, start = enter(None)
                try:
                    perm = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_(None, counters, frame, parent, start)
                counters[3] += 1
                yield perm

        def traced(*args, **kwargs):
            frame, parent, start = enter(None)
            try:
                iterator = fn(*args, **kwargs)
            finally:
                exit_(None, counters, frame, parent, start)
            counters[0] += 1
            return stream(iterator)

        traced.__wrapped__ = fn
        return traced

    def case(self, fn, *args):
        """Run one benchmark case as a root span."""
        frame, parent, start = self._enter("case")
        try:
            return fn(*args)
        finally:
            self._exit("case", [0, 0.0], frame, parent, start)

    def wall_s(self) -> float:
        """Traced wall time: the summed duration of the root case spans."""
        return sum(end - start for name, start, end, _ in self.spans if name == "case")

    def metrics(self) -> dict[str, float]:
        wall = self.wall_s()
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, attribute, reported in TRACED:
            name = metric_name(module, attribute)
            calls, self_s, zeros, perms = self.stats.get(name, (0, 0.0, 0, 0))
            module_self[module] += self_s
            values = {
                "calls": calls,
                "perms": perms,
                "self_s": self_s,
                "zero_ratio": zeros / calls if calls else 0.0,
            }
            for stat in reported:
                out[f"{name}.{stat}"] = values[stat]
        for module in MODULES:
            out[f"{module}.self_share"] = module_self[module] / wall if wall else 0.0
        return out


def _package_modules() -> list:
    return [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]


def install(tracer: Tracer) -> None:
    """Wrap every traced callable and verify that no original escapes."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{PACKAGE}.{info.name}")
    modules = _package_modules()
    originals = {}
    patched = []
    for module, attribute, reported in TRACED:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        name = metric_name(module, attribute)
        cls_name, _, attr = attribute.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        fn = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        if attr == "shuffles":
            wrapper = tracer.wrap_shuffles(name, fn)
        else:
            wrapper = tracer.wrap(
                name, fn, keep_span=module in SPAN_MODULES, zero_test="zero_ratio" in reported
            )
        originals[id(fn)] = name
        if cls_name:
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, wrapper))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    escaped = [
        f"{mod.__name__}.{key} -> {originals[id(value)]}"
        for mod in modules
        for key, value in vars(mod).items()
        if id(value) in originals
    ]
    escaped += [
        f"{owner.__name__}.{attr}" for owner, attr, wrapper in patched if owner.__dict__[attr] is not wrapper
    ]
    if escaped:
        raise RuntimeError(f"unwrapped originals still bound: {escaped}")
