"""In-memory layer spans recorded around calls into the program's layers.

A span is one call across a layer boundary: ``(name, start_ns, end_ns,
parent, op)``, where ``parent`` is the index of the enclosing span (-1 for
an op's root span) and ``op`` the id of the benchmark op that caused it.
Times are integer nanoseconds from ``time.perf_counter_ns``, so the
self-time arithmetic is exact: every span's self time is its duration
minus its direct children's durations, and the self times of all spans
sum to the root spans' durations with no rounding.

A call that re-enters the boundary it is already inside (``Tracer.span``
called from ``Tracer.token_minted``) opens no new span: it is not a
layer crossing, and skipping it keeps the recorder's overhead down on
the hottest paths.  Spans are kept in flat integer arrays (a traced pass
records millions).  Nothing here imports the program; ``layers.py``
names what to wrap.
"""

from __future__ import annotations

import array
import contextlib
import functools
import inspect
import sys
import time
import typing as _t

#: Name of the root span the benchmark opens around each op.
ROOT = "bench.op"

class SpanRecorder:
    """Collects spans; wrappers from :meth:`wrap` feed it."""

    def __init__(
        self, clock: _t.Callable[[], int] = time.perf_counter_ns
    ) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.ops: list[_t.Any] = []
        self._name = array.array("i")
        self._start = array.array("q")
        self._end = array.array("q")
        self._parent = array.array("q")
        self._op = array.array("i")
        self._stack: list[int] = []
        self._current_op = -1

    def __len__(self) -> int:
        return len(self._start)

    def rows(self) -> _t.Iterator[tuple[int, int, int, int, int]]:
        """Spans with their name and op as indexes into ``names``/``ops``."""
        return zip(self._name, self._start, self._end, self._parent, self._op)

    def self_times(self) -> dict[str, int]:
        """Self time per span name, in integer nanoseconds: each span's
        duration minus its direct children's."""
        children = array.array("q", bytes(8 * len(self)))
        for parent, start, end in zip(self._parent, self._start, self._end):
            if parent >= 0:
                children[parent] += end - start
        totals = [0] * len(self.names)
        for name, start, end, inner in zip(
            self._name, self._start, self._end, children
        ):
            totals[name] += end - start - inner
        return dict(zip(self.names, totals))

    def inclusive_times(self, names: _t.Collection[str]) -> dict[str, int]:
        """Wall time inside each boundary in ``names``: the durations of
        its spans that are not nested in another span of the same name."""
        totals = dict.fromkeys(names, 0)
        wanted = {self.names.index(n): n for n in names if n in self.names}
        for name, start, end, parent in zip(
            self._name, self._start, self._end, self._parent
        ):
            if name not in wanted:
                continue
            while parent >= 0 and self._name[parent] != name:
                parent = self._parent[parent]
            if parent < 0:
                totals[wanted[name]] += end - start
        return totals

    def counts(self) -> dict[str, int]:
        """Number of recorded spans (boundary crossings) per name."""
        totals = [0] * len(self.names)
        for name in self._name:
            totals[name] += 1
        return dict(zip(self.names, totals))

    def root_total(self) -> int:
        """Summed duration of the root (op) spans, in nanoseconds."""
        return sum(
            end - start
            for start, end, parent in zip(self._start, self._end, self._parent)
            if parent < 0
        )

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, name_id: int) -> int:
        stack = self._stack
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(stack[-1] if stack else -1)
        self._op.append(self._current_op)
        self._end.append(0)
        stack.append(index)
        self._start.append(self.clock())
        return index

    def _exit(self, index: int) -> None:
        self._end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span stack out of order: closed {index}, top was {popped}"
            )

    @contextlib.contextmanager
    def op(self, op_id: _t.Any) -> _t.Iterator[None]:
        """Root span of one benchmark op; spans inside carry ``op_id``."""
        if self._stack:
            raise RuntimeError("an op span cannot nest inside another span")
        self.ops.append(op_id)
        self._current_op = len(self.ops) - 1
        index = self._enter(self._name_id(ROOT))
        try:
            yield
        finally:
            self._exit(index)
            self._current_op = -1

    def wrap(self, name: str, fn: _t.Callable[..., _t.Any]):
        """``fn`` wrapped so each call outside a ``name`` span records one."""
        if inspect.isgeneratorfunction(fn):
            # A generator's body runs later, inside the simulation kernel's
            # stepping; a span around the call would time only its creation.
            raise TypeError(f"cannot span generator function {fn!r}")
        name_id = self._name_id(name)
        names = self._name
        stack = self._stack
        enter = self._enter
        exit_ = self._exit

        @functools.wraps(fn)
        def spanned(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            if stack and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return spanned

    def wrap_steps(self, name: str, generator: _t.Generator) -> _t.Generator:
        """``generator`` with a ``name`` span around each of its resumes.

        A simulation process runs one step per resume, inside the
        kernel's event loop; this attributes each step's host time to the
        layer whose code the process runs, instead of to the kernel.
        Sends, throws (interrupts) and the return value pass through
        unchanged, so the simulation is not perturbed.
        """
        name_id = self._name_id(name)
        names = self._name
        stack = self._stack
        enter = self._enter
        exit_ = self._exit
        send = generator.send
        throw = generator.throw

        def steps() -> _t.Generator:
            value: _t.Any = None
            error: BaseException | None = None
            while True:
                index = (
                    -1 if stack and names[stack[-1]] == name_id
                    else enter(name_id)
                )
                try:
                    yielded = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if index >= 0:
                        exit_(index)
                value, error = None, None
                try:
                    value = yield yielded
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # handed on to the process
                    error = exc

        stepped = steps()
        stepped.__name__ = generator.__name__
        stepped.__qualname__ = generator.__qualname__
        return stepped


class Patch:
    """Replaces attributes and puts the originals back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[_t.Any, str, _t.Any]] = []

    def method(
        self,
        owner: type,
        attr: str,
        make: _t.Callable[[_t.Callable[..., _t.Any]], _t.Any],
    ) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by
        ``make(original)``."""
        original = owner.__dict__.get(attr)
        if not inspect.isfunction(original):
            raise TypeError(
                f"{owner.__qualname__}.{attr} is not a plain function"
            )
        self._set(owner, attr, make(original))

    def function(
        self,
        original: _t.Callable[..., _t.Any],
        replacement: _t.Callable[..., _t.Any],
        package: str,
    ) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded module of
        ``package`` that holds it, since ``from x import f`` copies the
        name into the importing module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == package or name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _set(self, owner: _t.Any, attr: str, value: _t.Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
