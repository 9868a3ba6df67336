"""Outside-in tracer: wraps named functions of a package and records spans.

A hook names a function (or a method, as "Class.method") by the module
that defines it. Installing the hook replaces that function's name in
every module namespace of the package that binds the same object,
because `from x import f` copies the binding at import time and a patch
of the defining module alone would miss those callers. A hook whose
target is gone is listed in `absent` and skipped, so a renamed or
deleted function drops its metrics instead of crashing the benchmark;
`installed_groups` names the groups at least one hook fed.

For every hook group the tracer keeps the number of calls and the self
time: a span's duration minus the part of it covered by child spans.
Work done by the tracer itself (the `observe` callbacks) is charged to
no group.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Hook:
    """One traced function: `group` names the metric it feeds.

    `observe(tracer, args, kwargs, result)` may return a dict of extra
    totals (e.g. columns solved, bytes written) to add to `tracer.extra`.
    """

    group: str
    module: str
    attr: str
    observe: Callable[..., dict[str, float] | None] | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.nested_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()  # "module.attr" of hooks not found
        self.installed_groups: set[str] = set()
        self._stack: list[list] = []  # open spans: [group, child seconds]
        self._op_keys: set = set()

    def next_op(self) -> None:
        """Start a new benchmark operation (resets `first_in_op`)."""
        self._op_keys.clear()

    def first_in_op(self, key: Any) -> bool:
        """True the first time `key` is seen in the current operation."""
        if key in self._op_keys:
            return False
        self._op_keys.add(key)
        return True

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = [hook.group, 0.0]
            self._stack.append(span)
            start = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                self.self_s[hook.group] += duration - span[1]
                self.calls[hook.group] += 1
                if self._stack:
                    parent = self._stack[-1]
                    parent[1] += duration
                    self.nested_calls[(parent[0], hook.group)] += 1
            if hook.observe is not None:
                start = self.clock()
                for key, value in (hook.observe(self, args, kwargs, result) or {}).items():
                    self.extra[key] += value
                if self._stack:
                    self._stack[-1][1] += self.clock() - start
            return result

        return traced

    @contextmanager
    def installed(self, hooks: list[Hook], package: str):
        """Install every hook for the duration of the block."""
        targets = []
        for hook in hooks:  # resolve all before patching any
            owner: Any = sys.modules.get(hook.module)
            *path, name = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.add(f"{hook.module}.{hook.attr}")
            else:
                targets.append((hook, owner, name, original))
                self.installed_groups.add(hook.group)
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == package or mod_name.startswith(package + "."))
        ]
        patches = []
        try:
            for hook, owner, name, original in targets:
                wrapper = self._wrap(hook, original)
                if isinstance(owner, type):
                    spaces = [(owner, name)]
                else:
                    spaces = [
                        (mod, key)
                        for mod in modules
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for space, key in spaces:
                    patches.append((space, key, getattr(space, key)))
                    setattr(space, key, wrapper)
            yield self
        finally:
            for space, key, value in reversed(patches):
                setattr(space, key, value)
