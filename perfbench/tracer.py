"""Span tracing of altzeta from outside the package.

``install`` replaces the public functions and methods of each altzeta
module with wrappers that time every call.  Wrapped functions are swapped
in every altzeta module namespace that holds them, so calls across modules
(``from .euler import ...``) are traced too.  Self time of a call is its
duration minus the time of the wrapped calls it made.

Calls of the hot leaf functions (``LEAVES``) are counted and timed but keep
no span record, so a traced run stays small in memory; every other call
keeps a span (name, start, end, parent, request id).  Spans stay in memory
until the caller writes them out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("euler", "coefficients", "summation", "zeta", "boole", "verify", "cli")

LEAVES = frozenset(
    {
        "summation.CompensatedSum.add",
        "summation.ComplexCompensatedSum.add",
        "coefficients.CoefficientCache.layer",
        "coefficients.CoefficientCache.layer_noise_scale",
        "coefficients.pochhammer",
        "euler.euler_number_at_zero",
        "euler.euler_number_over_factorial",
        "euler.euler_polynomial",
        "euler.quasi_periodic_euler",
        "boole.SmoothFunction.deriv",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.first_call_s: dict[str, float] = {}
        self.request = 0
        # One [seconds spent in wrapped callees] frame per open call, and the
        # ids of the open calls that keep a span.
        self._stack: list[list] = []
        self._open_span: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, info=None):
        keep = name not in LEAVES
        stack = self._stack
        open_span = self._open_span
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            frame = [0.0]
            if keep:
                span_id = self._next_id
                self._next_id += 1
                parent = open_span[-1] if open_span else None
                open_span.append(span_id)
            stack.append(frame)
            extra = None  # stays None when the call raises
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if name not in self.first_call_s:
                    self.first_call_s[name] = duration
                if keep:
                    open_span.pop()
                    self.spans.append((span_id, name, start, end, parent, self.request, extra))

        return traced


def _public_callables(module):
    """(qualified suffix, owner, attribute, function) for the public
    functions defined in ``module`` and the public methods, plus
    constructors, of its public classes."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                    yield f"{attr}.{meth}", obj, meth, fn
        elif callable(obj):
            yield attr, module, attr, obj


def install(tracer: Tracer, info: dict | None = None) -> None:
    """Wrap every public function of the altzeta modules in ``tracer``.

    ``info`` maps a qualified name to a function of the call's result whose
    value is stored with its span.
    """
    info = info or {}
    modules = [importlib.import_module(f"altzeta.{name}") for name in MODULES]
    namespaces = [vars(m) for m in modules] + [vars(sys.modules["altzeta"])]
    for short, module in zip(MODULES, modules):
        for suffix, owner, attr, fn in list(_public_callables(module)):
            name = f"{short}.{suffix}"
            wrapped = tracer.wrap(name, fn, info.get(name))
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                continue
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is fn:
                        namespace[key] = wrapped
