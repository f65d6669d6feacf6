"""Generator-aware span tracer for the traced benchmark run.

The traced run swaps selected methods of the program's classes for
wrappers that record a *span* per call: layer, start, end and the span
that was open when it started (its parent).  The simulator's protocol
code is written as generator coroutines (``Resource.serve``,
``LockManager.acquire``, ``LogManager.force_write``, the commit
protocols' ``master_commit`` ...), and a generator's body runs in
pieces, one per resume.  So a generator method is wrapped in a
delegating generator that records one span per resume (``send``,
``throw`` or ``close``), not one span from creation to exhaustion,
which would count simulated waiting as host time.

A layer's *self time* is the duration of its spans minus the part
covered by their child spans.  Self times are aggregated on the fly;
the raw spans stay in memory (up to ``SPAN_CAP`` of them) and are
written out once, by :meth:`Tracer.dump`, when the benchmark ends.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import time
import typing

_clock = time.perf_counter

#: Spans kept in memory per traced section; later ones still count in
#: the aggregates but are not written out.
SPAN_CAP = 1_000_000


class Tracer:
    """Span stack plus per-layer aggregates for a fixed set of layers."""

    def __init__(self, layers: typing.Sequence[str]) -> None:
        self.layers = tuple(layers)
        self.index = {name: i for i, name in enumerate(self.layers)}
        self._call_cells: dict[str, list[int]] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and aggregate and start recording (start of
        a traced section)."""
        self.active = True
        count = len(self.layers)
        self.self_s = [0.0] * count
        self.calls = [0] * count
        # Open spans: [layer, start, child_seconds, span_index].
        self._stack: list[list] = []
        self.span_layer = array.array("b")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.spans_dropped = 0
        for cell in self._call_cells.values():
            cell[0] = 0

    def stop(self) -> None:
        """Stop recording.  Wrappers that outlive the traced section
        (generators finalized later by the garbage collector) then just
        delegate."""
        self.active = False

    def call_counts(self) -> dict[str, int]:
        """Calls per wrapped function (``Class.method``) so far; a
        generator function counts once per call, not per resume."""
        return {name: cell[0] for name, cell in self._call_cells.items()}

    def _call_cell(self, name: str) -> list[int]:
        return self._call_cells.setdefault(name, [0])

    # ------------------------------------------------------------------
    def enter(self, layer: int) -> list | None:
        if not self.active:
            return None
        stack = self._stack
        start = _clock()
        index = -1
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            self.span_layer.append(layer)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(start)
            self.span_end.append(start)
        else:
            self.spans_dropped += 1
        frame = [layer, start, 0.0, index]
        stack.append(frame)
        return frame

    def leave(self, frame: list | None) -> None:
        if frame is None:
            return
        end = _clock()
        stack = self._stack
        # Pop down to this frame: a span left open by a non-local exit
        # (an exception through a generator resume) closes here too.
        while stack:
            top = stack.pop()
            duration = end - top[1]
            layer = top[0]
            self.self_s[layer] += duration - top[2]
            self.calls[layer] += 1
            if top[3] >= 0:
                self.span_end[top[3]] = end
            if stack:
                stack[-1][2] += duration
            if top is frame:
                break

    # ------------------------------------------------------------------
    def wrap_function(self, layer_name: str, fn: typing.Callable,
                      ) -> typing.Callable:
        """A wrapper recording one span per call (generator functions:
        one span per resume)."""
        layer = self.index[layer_name]
        enter = self.enter
        leave = self.leave
        cell = self._call_cell(fn.__qualname__)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                cell[0] += 1
                frame = enter(layer)
                try:
                    inner = fn(*args, **kwargs)
                    result = inner.send(None)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(frame)
                while True:
                    try:
                        sent = yield result
                    except GeneratorExit:
                        frame = enter(layer)
                        try:
                            inner.close()
                        finally:
                            leave(frame)
                        raise
                    except BaseException as error:  # noqa: BLE001
                        frame = enter(layer)
                        try:
                            result = inner.throw(error)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            leave(frame)
                    else:
                        frame = enter(layer)
                        try:
                            result = inner.send(sent)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            leave(frame)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapper

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[float, int]]:
        """``{layer: (self_seconds, calls)}`` so far."""
        return {name: (self.self_s[i], self.calls[i])
                for i, name in enumerate(self.layers)}

    def dump(self, directory: str, stem: str) -> str:
        """Write the retained spans: ``<stem>.json`` (layer names, count,
        array layout) beside four raw arrays in ``<stem>.<field>.bin``."""
        os.makedirs(directory, exist_ok=True)
        fields = {"layer": self.span_layer, "parent": self.span_parent,
                  "start": self.span_start, "end": self.span_end}
        for field, values in fields.items():
            with open(os.path.join(directory, f"{stem}.{field}.bin"),
                      "wb") as out:
                values.tofile(out)
        header = os.path.join(directory, f"{stem}.json")
        with open(header, "w") as out:
            json.dump({"layers": list(self.layers),
                       "spans": len(self.span_start),
                       "spans_dropped": self.spans_dropped,
                       "clock": "time.perf_counter seconds",
                       "arrays": {f: {"file": f"{stem}.{f}.bin",
                                      "typecode": v.typecode,
                                      "itemsize": v.itemsize}
                                  for f, v in fields.items()}},
                      out, indent=1)
        return header


class Patch:
    """Installs tracer wrappers on class attributes and restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[type, str, object]] = []

    def wrap(self, layer: str, cls: type, names: typing.Iterable[str],
             ) -> None:
        for name in names:
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self.tracer.wrap_function(layer, original))

    def wrap_public(self, layer: str, cls: type,
                    extra: typing.Iterable[str] = ()) -> None:
        """Wrap every public plain function defined on ``cls`` itself
        (inherited ones are wrapped where they are defined), plus the
        named private ones."""
        names = [name for name, value in vars(cls).items()
                 if inspect.isfunction(value) and not name.startswith("_")]
        self.wrap(layer, cls, names + list(extra))

    def restore(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()
