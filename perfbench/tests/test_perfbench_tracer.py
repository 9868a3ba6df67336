"""Tracer behaviour on synthetic functions driven by a fake clock."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import per_layer_values  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


INNER = '''
def leaf(clock):
    clock.advance(2.0)
    return "leaf"

def middle(clock):
    clock.advance(1.0)
    leaf(clock)
    leaf(clock)
    clock.advance(0.5)

def failing(clock):
    clock.advance(3.0)
    raise ValueError("boom")

class Solver:
    def solve(self, clock, cols):
        clock.advance(0.125)
        return cols
'''

USER = '''
def top(clock):
    clock.advance(0.25)
    middle(clock)
'''


@pytest.fixture
def fakepkg():
    """fakepkg.inner defines the functions; fakepkg.user binds `middle`
    the way `from fakepkg.inner import middle` would."""
    inner = types.ModuleType("fakepkg.inner")
    exec(INNER, inner.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.middle = inner.middle
    exec(USER, user.__dict__)
    pkg = types.ModuleType("fakepkg")
    names = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.user": user}
    sys.modules.update(names)
    yield inner, user
    for name in names:
        del sys.modules[name]


HOOKS = [
    Hook("top", "fakepkg.user", "top"),
    Hook("middle", "fakepkg.inner", "middle"),
    Hook("leaf", "fakepkg.inner", "leaf"),
]


def test_self_time_is_span_minus_children(fakepkg):
    inner, user = fakepkg
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.installed(HOOKS, "fakepkg"):
        user.top(clock)
    # top spans 5.75 s, of which middle covers 5.5; middle spans 5.5, leaves cover 4
    assert tracer.self_s["top"] == 0.25
    assert tracer.self_s["middle"] == 1.5
    assert tracer.self_s["leaf"] == 4.0
    assert clock.now == 5.75


def test_counts_are_exact_and_hooks_are_removed(fakepkg):
    inner, user = fakepkg
    originals = (inner.middle, inner.leaf, user.middle, user.top)
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.installed(HOOKS, "fakepkg"):
        for _ in range(7):
            user.top(clock)
        inner.leaf(clock)
    assert dict(tracer.calls) == {"top": 7, "middle": 7, "leaf": 15}
    assert tracer.nested_calls[("middle", "leaf")] == 14
    assert tracer.nested_calls[("top", "middle")] == 7
    assert (inner.middle, inner.leaf, user.middle, user.top) == originals
    user.top(clock)
    assert tracer.calls["top"] == 7


def test_method_hook_and_observe(fakepkg):
    inner, _ = fakepkg
    clock = FakeClock()
    tracer = Tracer(clock)

    def observe(tr, args, kwargs, result):
        clock.advance(100.0)  # tracer work is charged to no group
        return {"cols": float(result), "first": float(tr.first_in_op(result))}

    hooks = [Hook("solve", "fakepkg.inner", "Solver.solve", observe)]
    original = inner.Solver.solve
    with tracer.installed(hooks, "fakepkg"):
        solver = inner.Solver()
        for op in range(2):
            tracer.next_op()
            for cols in (3, 3, 5):
                solver.solve(clock, cols)
    assert tracer.calls["solve"] == 6
    assert tracer.self_s["solve"] == 0.75
    assert tracer.extra == {"cols": 22.0, "first": 4.0}
    assert inner.Solver.solve is original


def test_exception_still_closes_the_span(fakepkg):
    inner, _ = fakepkg
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.installed([Hook("failing", "fakepkg.inner", "failing")], "fakepkg"):
        with pytest.raises(ValueError):
            inner.failing(clock)
    assert tracer.self_s["failing"] == 3.0
    assert tracer.calls["failing"] == 1


def test_missing_target_is_absent_not_fatal(fakepkg):
    _, user = fakepkg
    clock = FakeClock()
    tracer = Tracer(clock)
    hooks = HOOKS + [
        Hook("gone", "fakepkg.inner", "renamed_away"),
        Hook("gone", "fakepkg.missing", "anything"),
        Hook("fem.factor", "fakepkg.inner", "Gone.method"),
    ]
    with tracer.installed(hooks, "fakepkg"):
        user.top(clock)
    assert tracer.absent == {
        "fakepkg.inner.renamed_away", "fakepkg.missing.anything", "fakepkg.inner.Gone.method"
    }
    assert "gone" not in tracer.installed_groups
    values = per_layer_values(tracer, 1)
    assert "fem.factor_s" not in values and "fem.factor_useful_frac" not in values
    assert values == {}
