"""Call tracer that instruments a package from outside.

A :class:`Tracer` wraps plain functions so that each call records its
duration, its self time (duration minus the time spent in wrapped callees)
and any counts an observer derives from the arguments and the result.
:meth:`Tracer.patch_function` rebinds *every* name under which a function is
bound in the package's modules, so a ``from .x import f`` alias in another
module cannot bypass the wrapper.  :meth:`Tracer.restore` puts every original
back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

WRAPPED_MARK = "_bench_traced"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)  # "<span>.<counter>" -> value
        self._stack = []  # time spent in wrapped callees, one slot per open span
        self._patches = []  # (namespace, key, original, is_dict)

    def count(self, span: str, counter: str, value: float = 1.0):
        self.counts[f"{span}.{counter}"] += value

    def count_max(self, span: str, counter: str, value: float):
        key = f"{span}.{counter}"
        self.counts[key] = max(self.counts.get(key, value), value)

    def wrap(self, span: str, fn, observe=None):
        """Return ``fn`` wrapped as span ``span``.

        ``observe(tracer, args, kwargs, result)`` runs after a successful call.
        The wrapper's own bookkeeping, the observer included, is charged to
        neither the span nor its caller's self time.
        """
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                self.calls[span] += 1
                self.total_s[span] += t1 - t0
                self.self_s[span] += (t1 - t0) - child
                if stack:
                    stack[-1] += t1 - t0
            if observe is not None:
                t2 = clock()
                observe(self, args, kwargs, result)
                if stack:
                    stack[-1] += clock() - t2
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def patch_function(self, package: str, original, span: str, observe=None) -> int:
        """Rebind every binding of ``original`` in ``package``'s loaded modules.

        Returns the number of bindings replaced.
        """
        wrapper = self.wrap(span, original, observe)
        replaced = 0
        for module in package_modules(package):
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, False))
                    setattr(module, key, wrapper)
                    replaced += 1
        return replaced

    def patch_dict_entry(self, table: dict, key, span: str, observe=None):
        original = table[key]
        self._patches.append((table, key, original, True))
        table[key] = self.wrap(span, original, observe)

    def restore(self):
        while self._patches:
            namespace, key, original, is_dict = self._patches.pop()
            if is_dict:
                namespace[key] = original
            else:
                setattr(namespace, key, original)


def package_modules(package: str) -> list:
    prefix = package + "."
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(prefix))
    ]


def leftover_wrappers(package: str, tables=()) -> list[str]:
    """Names in ``package``'s modules (and in ``tables``) still bound to a wrapper."""
    found = []
    for module in package_modules(package):
        for key, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False) is True:
                found.append(f"{module.__name__}.{key}")
    for table in tables:
        for key, value in table.items():
            if getattr(value, WRAPPED_MARK, False) is True:
                found.append(f"table[{key!r}]")
    return found
