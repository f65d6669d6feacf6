"""In-memory event recording.

:class:`EventLog` is the simplest useful subscriber: it appends every
event it sees to a list.  Tests use it to assert on *sequences* of
behaviour (e.g. that a failure-injection run is indistinguishable from
the same run without the failure right up to the crash instant); tools
use it to snapshot a run for offline inspection, or, over the lifecycle
kinds alone, to trace submissions, outcomes, borrows and victims.
"""

from __future__ import annotations

import typing

from repro.obs.bus import EventBus, Subscription
from repro.obs.events import EventKind, SimEvent, event_to_dict


class EventLog:
    """Record events of the given kinds (default: all kinds)."""

    def __init__(self, kinds: typing.Iterable[EventKind] | None = None,
                 limit: int | None = None) -> None:
        self.kinds = tuple(kinds) if kinds is not None else tuple(EventKind)
        self.events: list[SimEvent] = []
        self._limit = limit
        self._subscription: Subscription | None = None

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "EventLog":
        if self._subscription is not None:
            raise RuntimeError("EventLog is already attached")
        self._subscription = bus.subscribe(self.kinds, self._record)
        return self

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def _record(self, event: SimEvent) -> None:
        if self._limit is not None and len(self.events) >= self._limit:
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: EventKind) -> list[SimEvent]:
        return [e for e in self.events if e.kind is kind]

    def until(self, time: float) -> list[SimEvent]:
        """Events strictly before ``time`` (a run's comparable prefix)."""
        return [e for e in self.events if e.time < time]

    def as_dicts(self, until: float | None = None) -> list[dict]:
        """Flattened events, optionally truncated, for comparisons."""
        events = self.events if until is None else self.until(until)
        return [event_to_dict(e) for e in events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> typing.Iterator[SimEvent]:
        return iter(self.events)
