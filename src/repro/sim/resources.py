"""Queueing resources for the closed queueing network model.

The paper's model needs three kinds of service centers:

- **FCFS resources** (data disks, log disks): single queue, one or more
  servers, first-come first-served.
- **Priority resources** (CPUs): a single common queue shared by all the
  site's processors, where *message processing is given higher priority
  than data processing* (Section 4 of the paper).  Priorities are
  non-preemptive.
- **Infinite servers**: Experiment 2 ("pure data contention") makes the
  physical resources infinite -- no queueing, only service time.

All three expose the same ``request``/``release`` claims and ``serve``
coroutine so call sites do not care which one they talk to.  A service
is one *timed* claim: the grant schedules the service's end, so the
waiter (a process, or a callback chain such as a message delivery)
resumes once per service, when it ends.
"""

from __future__ import annotations

import collections
import heapq
import typing
from heapq import heappush as _heappush

from repro.sim.events import _PENDING, Event
from repro.sim.process import _Resume

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

#: Priority for message handling at CPUs (served before data processing).
PRIORITY_MESSAGE = 0
#: Priority for local data processing at CPUs.
PRIORITY_DATA = 1


class Request(Event):
    """A claim on a resource.

    A *plain* claim (``duration=None``) triggers when the resource grants
    it and is held until released.  A *timed* claim triggers when the
    ``duration``-long service its grant starts has ended: the grant
    schedules the completion itself instead of resuming the waiter, so
    one service costs the waiter one resume.  Either kind must be
    released with :meth:`Resource.release` (directly or via ``serve``).
    """

    __slots__ = ("priority", "duration", "granted")

    def __init__(self, env: "Environment", priority: int = PRIORITY_DATA,
                 duration: float | None = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.priority = priority
        self.duration = duration
        #: holds one of a Resource's servers: set at the grant, cleared
        #: at the release.
        self.granted = False


class Resource:
    """A multi-server FCFS resource.

    Statistics: tracks busy time per server-slot so utilization can be
    reported, and the time-integral of queue length.
    """

    def __init__(self, env: "Environment", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_service = 0
        self._queued = 0
        self._queue: collections.deque[Request] = collections.deque()
        # Statistics.
        self._busy_integral = 0.0
        self._queue_integral = 0.0
        self._last_change = env.now
        self._served = 0
        # Bound once: a timed grant's callback (binding per grant is
        # measurable).
        self._start = self._start_service

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def request(self, priority: int = PRIORITY_DATA,
                duration: float | None = None) -> Request:
        """Claim a server slot.

        The returned claim triggers when granted or, given a
        ``duration``, when that long a service (started by the grant)
        has ended.
        """
        if duration is not None and duration < 0:
            raise ValueError(f"negative duration {duration}")
        env = self.env
        now = env._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * self._in_service
            self._queue_integral += dt * self._queued
            self._last_change = now
        req = Request(env, priority, duration)
        if self._in_service < self.capacity:
            self._in_service += 1
            req.granted = True
            if duration is None:
                req.succeed()
            else:
                env._eid += 1
                _heappush(env._queue, (now, env._eid,
                                       _Resume(self._start, True, req)))
        else:
            self._queued += 1
            self._enqueue(req)
        return req

    def release(self, request: Request) -> None:
        """Release a claim, or withdraw it if not yet granted."""
        env = self.env
        now = env._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * self._in_service
            self._queue_integral += dt * self._queued
            self._last_change = now
        if not request.granted:
            # Still waiting: withdraw from the queue (used when an
            # interrupted process abandons its claim).
            self._withdraw(request)
            return
        request.granted = False
        self._served += 1
        if not self._queued:
            self._in_service -= 1
            return
        # Hand the freed server straight to the next claim in line.
        self._queued -= 1
        nxt = self._pop_next()
        nxt.granted = True
        if nxt.duration is None:
            nxt.succeed()
        else:
            env._eid += 1
            _heappush(env._queue, (now, env._eid,
                                   _Resume(self._start, True, nxt)))

    def cancel(self, request: Request) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self._account()
        if not request.granted:
            self._withdraw(request)

    def _start_service(self, grant: _Resume) -> None:
        """A timed claim's grant came up: schedule the service's end.

        A claim released in the same instant before its grant was
        processed (its waiter was interrupted) starts nothing.
        """
        req = grant._value
        if req.granted:
            req._ok = True
            req._value = None
            env = self.env
            env._eid += 1
            _heappush(env._queue, (env._now + req.duration, env._eid, req))

    def serve(self, duration: float, priority: int = PRIORITY_DATA,
              ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: wait for a server, hold it for ``duration``, release.

        The caller waits on one timed claim, so it resumes once, when
        the service ends.  If it is interrupted while queued or in
        service, the claim is cleanly withdrawn/released before the
        interrupt propagates.
        """
        req = self.request(priority, duration)
        try:
            yield req
        finally:
            self.release(req)

    # ------------------------------------------------------------------
    # Queue discipline (overridden by PriorityResource)
    # ------------------------------------------------------------------
    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _dequeue(self, req: Request) -> bool:
        try:
            self._queue.remove(req)
        except ValueError:
            return False
        return True

    def _pop_next(self) -> Request:
        return self._queue.popleft()

    def _withdraw(self, req: Request) -> None:
        if self._dequeue(req):
            self._queued -= 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _account(self) -> None:
        now = self.env._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * self._in_service
            self._queue_integral += dt * self._queued
            self._last_change = now

    @property
    def queue_length(self) -> int:
        return self._queued

    @property
    def in_service(self) -> int:
        return self._in_service

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of server capacity busy over ``elapsed`` time."""
        self._account()
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    def busy_snapshot(self) -> float:
        """Cumulative busy server-time so far (for windowed utilization:
        take a snapshot at window start and subtract)."""
        self._account()
        return self._busy_integral

    def mean_queue_length(self, elapsed: float) -> float:
        self._account()
        if elapsed <= 0:
            return 0.0
        return self._queue_integral / elapsed


class PriorityResource(Resource):
    """FCFS within priority class; lower priority value served first.

    Used for site CPUs: message processing (priority 0) overtakes queued
    data processing (priority 1), but service is non-preemptive.
    """

    def __init__(self, env: "Environment", capacity: int = 1,
                 name: str = "priority-resource") -> None:
        super().__init__(env, capacity, name)
        self._pqueue: list[tuple[int, int, Request]] = []
        self._seq = 0

    def _enqueue(self, req: Request) -> None:
        self._seq += 1
        heapq.heappush(self._pqueue, (req.priority, self._seq, req))

    def _dequeue(self, req: Request) -> bool:
        for i, (_, _, queued) in enumerate(self._pqueue):
            if queued is req:
                self._pqueue[i] = self._pqueue[-1]
                self._pqueue.pop()
                heapq.heapify(self._pqueue)
                return True
        return False

    def _pop_next(self) -> Request:
        return heapq.heappop(self._pqueue)[2]


class InfiniteServer:
    """A service center with unlimited parallel servers (no queueing).

    Experiment 2 of the paper makes CPUs and disks "infinite": requests
    never queue but still take their full service time.  Exposes the same
    ``request``/``release``/``serve`` interface as :class:`Resource`; a
    service is counted (``_served``, busy time) when it is released
    after it ended, so one cut short by an interrupt counts nothing.
    """

    def __init__(self, env: "Environment", name: str = "infinite") -> None:
        self.env = env
        self.name = name
        self.capacity = float("inf")
        self._served = 0
        self._busy_integral = 0.0

    def request(self, priority: int = PRIORITY_DATA,
                duration: float | None = None) -> Request:
        """Claim a server: granted at once, so the claim triggers now
        or, given a ``duration``, when that long a service has ended."""
        if duration is not None and duration < 0:
            raise ValueError(f"negative duration {duration}")
        env = self.env
        req = Request(env, priority, duration)
        req._ok = True
        req._value = None
        env._eid += 1
        _heappush(env._queue, (env._now + (duration or 0.0), env._eid, req))
        return req

    def release(self, request: Request) -> None:
        """Count a claim that has triggered (a timed one: its service
        ended); one released earlier counts nothing."""
        if request.callbacks is None:
            self._served += 1
            if request.duration is not None:
                self._busy_integral += request.duration

    serve = Resource.serve

    @property
    def queue_length(self) -> int:
        return 0

    @property
    def in_service(self) -> int:
        return 0

    def utilization(self, elapsed: float) -> float:
        return 0.0

    def busy_snapshot(self) -> float:
        return self._busy_integral

    def mean_queue_length(self, elapsed: float) -> float:
        return 0.0


#: Anything a site can dispatch service requests to.
Server = typing.Union[Resource, PriorityResource, InfiniteServer]


class Store:
    """An unbounded FIFO message store (mailbox).

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item as soon as one is available.  Used for inter-process
    message delivery (master/cohort inboxes).

    Semantics note: if a process that was waiting on ``get`` is
    interrupted, a later ``put`` may still resolve its (now unread) get
    event, consuming the item.  The commit simulator is immune by
    construction -- inboxes belong to per-incarnation agents, and an
    interrupted agent's messages are dead letters anyway -- but library
    users with shared mailboxes should re-``get`` rather than reuse a
    possibly-interrupted get event.
    """

    def __init__(self, env: "Environment", name: str = "store") -> None:
        self.env = env
        self.name = name
        # Plain lists, not deques: a store lives and dies with one agent
        # and rarely holds more than a message or two, and an empty
        # deque is over ten times the size of an empty list.
        self._items: list[typing.Any] = []
        self._getters: list[Event] = []

    def put(self, item: typing.Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        getters = self._getters
        while getters:
            getter = getters.pop(0)
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def clear(self) -> None:
        """Discard all queued items and pending getters.

        Models the loss of volatile state: a crashed site's mailboxes are
        emptied and processes waiting on them are never woken (the fault
        injector interrupts those processes separately).
        """
        self._items.clear()
        self._getters.clear()

    def __len__(self) -> int:
        return len(self._items)
