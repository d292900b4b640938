"""In-memory tracer that wraps public itolab functions from outside the package.

``Tracer.install()`` replaces every binding of each target, in every loaded
``itolab`` module, with a timing wrapper; ``uninstall()`` puts the originals
back.  A target that no longer exists raises ``MissingTarget``, so a rename
in ``src/itolab`` cannot silently zero a layer.

Two kinds of target:

* spans (coarse boundaries): one record per call with start, end, self time,
  parent span id and attributes taken from the arguments or the result;
* leaves (hot functions called up to ~10^5 times a pass): count, inclusive
  and self time and a work count, aggregated per (function, caller).

Self time is a call's duration minus the time spent in traced calls it made.
Inclusive time of a group only counts calls not nested in another call of
the same group, so recursion or nested helpers are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable


class MissingTarget(RuntimeError):
    """A function the benchmark traces is not where the benchmark expects it."""


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    leaf: bool = False
    on_call: Callable | None = None    # spans: on_call(tracer, frame, arguments)
    on_return: Callable | None = None  # on_return(tracer, frame, arguments, result)
    work: Callable | None = None       # leaves: work(args) -> int
    group: str | None = None       # inclusive-time group; default: the name

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('itolab.')}.{self.qualname}"


# fields of a leaf aggregate
CALLS, S, SELF_S, WORK = range(4)


class Frame:
    __slots__ = ("name", "span_id", "child", "attrs", "nested")

    def __init__(self, name, span_id, nested):
        self.name = name
        self.span_id = span_id
        self.nested = nested
        self.child = 0.0
        self.attrs = {}


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stack: list[Frame] = []
        self.active: dict[str, int] = {}
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}   # (name, caller) -> [calls, s, self_s, work]
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "itolab" or n.startswith("itolab.")) and m is not None]
        try:
            for t in self.targets:
                self._install_one(t, modules)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, t: Target, modules) -> None:
        try:
            mod = importlib.import_module(t.module)
        except ImportError as exc:
            raise MissingTarget(f"trace target module {t.module} is missing") from exc
        owner_name, _, attr = t.qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            raise MissingTarget(f"trace target {t.module}.{t.qualname} is missing")
        orig = vars(owner)[attr]
        if not inspect.isfunction(orig):
            raise MissingTarget(f"trace target {t.module}.{t.qualname} is not a function")
        wrapper = self._wrap(t, orig)
        if owner_name:
            self._patch(owner, attr, orig, wrapper)
            return
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -------------------------------------------------------------

    def _wrap(self, t: Target, fn):
        name, group = t.name, t.group or t.name
        stack, active, clock = self.stack, self.active, time.perf_counter
        sig = None if t.leaf else inspect.signature(fn)
        on_call, on_return, work = t.on_call, t.on_return, t.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = active.get(group, 0) > 0
            active[group] = active.get(group, 0) + 1
            span_id = None
            if not t.leaf:
                span_id = self._next_id
                self._next_id += 1
            frame = Frame(name, span_id, nested)
            arguments = args
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if on_call is not None:
                on_call(self, frame, arguments)
            caller = stack[-1] if stack else None
            stack.append(frame)
            error = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[group] -= 1
                dur = t1 - t0
                if caller is not None:
                    caller.child += dur
                if t.leaf:
                    key = (name, caller.name if caller else None)
                    agg = self.leaves.get(key)
                    if agg is None:
                        agg = self.leaves[key] = [0, 0.0, 0.0, 0]
                    agg[CALLS] += 1
                    if not nested:
                        agg[S] += dur
                    agg[SELF_S] += dur - frame.child
                    if work is not None:
                        agg[WORK] += work(args)
                if on_return is not None and error is None:
                    on_return(self, frame, arguments, result)
                if not t.leaf:
                    if error is not None:
                        frame.attrs["error"] = error
                    parent = next((f.span_id for f in reversed(stack)
                                   if f.span_id is not None), None)
                    self.spans.append({"id": span_id, "parent": parent, "name": name,
                                       "group": group, "nested": nested,
                                       "start": t0, "end": t1, "self": dur - frame.child,
                                       "attrs": frame.attrs})

        return wrapper

    def enclosing(self, names: tuple) -> Frame | None:
        """Innermost open frame whose name is in ``names``."""
        return next((f for f in reversed(self.stack) if f.name in names), None)

    # -- reading ---------------------------------------------------------------

    def spans_of(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def span_total(self, name: str, key: str = "s") -> float:
        spans = self.spans_of(name)
        if key == "self_s":
            return math.fsum(s["self"] for s in spans)
        return math.fsum(s["end"] - s["start"] for s in spans if not s["nested"])

    def group_total(self, group: str) -> float:
        """Inclusive time of a group whose members may be spans or leaves."""
        total = math.fsum(s["end"] - s["start"] for s in self.spans
                          if s["group"] == group and not s["nested"])
        names = {t.name for t in self.targets if (t.group or t.name) == group and t.leaf}
        return total + math.fsum(a[S] for (n, _), a in self.leaves.items() if n in names)

    def leaf_total(self, name: str, index: int) -> float:
        return sum(a[index] for (n, _), a in self.leaves.items() if n == name)

    def dump(self) -> dict:
        return {"spans": self.spans,
                "leaves": [{"name": n, "caller": c, "calls": a[CALLS], "s": a[S],
                            "self_s": a[SELF_S], "work": a[WORK]}
                           for (n, c), a in sorted(self.leaves.items(),
                                                   key=lambda kv: (kv[0][0], str(kv[0][1])))]}
