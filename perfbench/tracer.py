"""Per-layer span accumulators installed from outside the program.

Each entry point is resolved by module and qualified name at install time
and replaced by a wrapper that times the call with ``perf_counter_ns``.
Every module of the ``apar`` package that bound the same function object
under the same name gets the wrapper too, so ``from .tree import restore``
in another module is traced as well.  Entry points that no longer exist are
skipped and listed in ``missing``.  ``uninstall`` puts every original back.

Spans are not kept one by one: a run makes millions of calls.  Each name
keeps calls, total time, self time (total minus the time of spans that ran
inside it) and the number of calls that raised.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

CALLS, TOTAL, SELF, RAISED = range(4)


class Tracer:
    def __init__(self, spans):
        self.spans = spans  # (span name, module, qualname, after-hook or None)
        self.stats: dict[str, list[int]] = {name: [0, 0, 0, 0] for name, *_ in spans}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._child = [0]  # time of spans nested in each open span; [0] is the root
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0, 0, 0]
        self.counters.clear()
        self._child[:] = [0]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def _wrap(self, name: str, fn, after):
        st = self.stats.setdefault(name, [0, 0, 0, 0])
        child = self._child

        def traced(*args, **kwargs):
            child.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[RAISED] += 1
                raise
            finally:
                dur = perf_counter_ns() - t0
                inner = child.pop()
                child[-1] += dur
                st[CALLS] += 1
                st[TOTAL] += dur
                st[SELF] += dur - inner
            if after is not None:
                after(self, args, result, dur)
            return result

        return traced

    def root(self, name: str):
        """A span for the benchmark's own code: ``root(name)(fn)`` runs ``fn()``."""
        return self._wrap(name, lambda fn: fn(), None)

    def install(self) -> None:
        self.missing = []
        for name, module, qualname, after in self.spans:
            try:
                owner = importlib.import_module(module)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{qualname}")
                continue
            wrapper = self._wrap(name, original, after)
            self._patch(owner, attr, original, wrapper)
            if not path:  # a module-level function: rebind its imported copies
                for modname, mod in list(sys.modules.items()):
                    if modname.split(".")[0] == "apar" and mod is not owner:
                        if getattr(mod, attr, None) is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
