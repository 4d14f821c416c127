import itertools
import random

import pytest

from spans import ROOT, Patch, SpanRecorder


def ticking(step=7):
    return itertools.count(0, step).__next__


def test_nested_self_times():
    recorder = SpanRecorder(clock=ticking())
    inner = recorder.wrap("b", lambda: None)

    def middle():
        inner()
        inner()

    outer = recorder.wrap("a", middle)
    with recorder.op("op"):
        outer()
        inner()
    # Each clock read advances 7 ns: b spans last 7 ns each, a lasts 35
    # with 14 of it in b, the root lasts 63 with 42 of it in a and b.
    assert recorder.self_times() == {ROOT: 21, "b": 21, "a": 21}
    assert recorder.root_total() == 63
    assert recorder.inclusive_times(["a", "b"]) == {"a": 35, "b": 21}
    assert recorder.counts() == {ROOT: 1, "b": 3, "a": 1}


def test_random_trees_sum_exactly_to_the_total():
    rng = random.Random(5)
    recorder = SpanRecorder(clock=lambda: rng.randrange(10**9) + next(tick))
    tick = itertools.count(0, 10**9)
    names = ["x", "y", "z"]

    def call(depth):
        if depth and rng.random() < 0.7:
            for _ in range(rng.randrange(1, 4)):
                wrapped[rng.choice(names)](depth - 1)

    wrapped = {name: recorder.wrap(name, call) for name in names}
    for op in range(20):
        with recorder.op(op):
            call(5)
    assert sum(recorder.self_times().values()) == recorder.root_total()
    assert all(value >= 0 for value in recorder.self_times().values())


def test_reentering_the_same_boundary_records_one_span():
    recorder = SpanRecorder(clock=ticking())

    def countdown(n):
        if n:
            wrapped(n - 1)

    wrapped = recorder.wrap("a", countdown)
    with recorder.op("op"):
        wrapped(3)
    assert recorder.counts()["a"] == 1


def test_a_raising_call_closes_its_spans():
    recorder = SpanRecorder(clock=ticking())

    def boom():
        raise ValueError("x")

    wrapped = recorder.wrap("a", boom)
    with pytest.raises(ValueError):
        with recorder.op("op"):
            wrapped()
    with recorder.op("next"):
        pass
    assert sum(recorder.self_times().values()) == recorder.root_total()
    assert [row[3] for row in recorder.rows()] == [-1, 0, -1]


def test_generator_functions_are_refused():
    def gen():
        yield 1

    with pytest.raises(TypeError):
        SpanRecorder().wrap("a", gen)


def process():
    got = yield "first"
    try:
        yield got * 2
    except KeyError as exc:
        got = yield f"caught {exc.args[0]}"
    return got + 1


def drive(generator):
    seen = [generator.send(None), generator.send(5)]
    seen.append(generator.throw(KeyError("k")))
    with pytest.raises(StopIteration) as stop:
        generator.send(10)
    return seen, stop.value.value


def test_wrapped_steps_behave_like_the_process():
    recorder = SpanRecorder(clock=ticking())
    with recorder.op("op"):
        wrapped = recorder.wrap_steps("p", process())
        assert drive(wrapped) == drive(process())
    # One span per resume: start, send, throw, final send.
    assert recorder.counts()["p"] == 4
    assert wrapped.__name__ == "process"


def test_patch_undo_restores_methods_and_rebound_functions():
    class Owner:
        def method(self):
            return "original"

    patch = Patch()
    patch.method(Owner, "method", lambda original: lambda self: "patched")
    assert Owner().method() == "patched"
    patch.undo()
    assert Owner().method() == "original"
    with pytest.raises(TypeError):
        Patch().method(Owner, "missing", lambda original: original)
