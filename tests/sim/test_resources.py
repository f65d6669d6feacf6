"""Tests for FCFS, priority, and infinite resources, and the Store."""

import pytest

from repro.sim import (
    Environment,
    InfiniteServer,
    Interrupt,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.resources import PRIORITY_DATA, PRIORITY_MESSAGE


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_single_server_serializes_requests():
    env = Environment()
    disk = Resource(env, capacity=1, name="disk")
    finish = []

    def job(env, tag):
        yield from disk.serve(10.0)
        finish.append((tag, env.now))

    env.process(job(env, "a"))
    env.process(job(env, "b"))
    env.process(job(env, "c"))
    env.run()
    assert finish == [("a", 10.0), ("b", 20.0), ("c", 30.0)]


def test_multi_server_runs_in_parallel():
    env = Environment()
    cpu = Resource(env, capacity=2)
    finish = []

    def job(env, tag):
        yield from cpu.serve(10.0)
        finish.append((tag, env.now))

    for tag in "abc":
        env.process(job(env, tag))
    env.run()
    assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_fcfs_order_preserved():
    env = Environment()
    disk = Resource(env, capacity=1)
    order = []

    def job(env, tag, arrival):
        yield env.timeout(arrival)
        yield from disk.serve(5.0)
        order.append(tag)

    env.process(job(env, "late", 2.0))
    env.process(job(env, "early", 1.0))
    env.process(job(env, "first", 0.0))
    env.run()
    assert order == ["first", "early", "late"]


def test_priority_resource_serves_messages_first():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    order = []

    def data_job(env, tag, arrival):
        yield env.timeout(arrival)
        yield from cpu.serve(10.0, priority=PRIORITY_DATA)
        order.append(tag)

    def message_job(env, tag, arrival):
        yield env.timeout(arrival)
        yield from cpu.serve(1.0, priority=PRIORITY_MESSAGE)
        order.append(tag)

    # d1 occupies the CPU at t=0; d2 and m1 queue while d1 runs.
    env.process(data_job(env, "d1", 0.0))
    env.process(data_job(env, "d2", 1.0))
    env.process(message_job(env, "m1", 2.0))
    env.run()
    assert order == ["d1", "m1", "d2"]


def test_priority_resource_is_non_preemptive():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    log = []

    def data_job(env):
        yield from cpu.serve(10.0, priority=PRIORITY_DATA)
        log.append(("data-done", env.now))

    def message_job(env):
        yield env.timeout(1.0)
        yield from cpu.serve(1.0, priority=PRIORITY_MESSAGE)
        log.append(("msg-done", env.now))

    env.process(data_job(env))
    env.process(message_job(env))
    env.run()
    # Message arrives at t=1 but data job runs to completion at t=10.
    assert log == [("data-done", 10.0), ("msg-done", 11.0)]


def test_priority_fcfs_within_class():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    order = []

    def msg(env, tag, arrival):
        yield env.timeout(arrival)
        yield from cpu.serve(1.0, priority=PRIORITY_MESSAGE)
        order.append(tag)

    def blocker(env):
        yield from cpu.serve(5.0, priority=PRIORITY_DATA)

    env.process(blocker(env))
    env.process(msg(env, "m1", 1.0))
    env.process(msg(env, "m2", 2.0))
    env.process(msg(env, "m3", 3.0))
    env.run()
    assert order == ["m1", "m2", "m3"]


def test_release_of_waiting_request_withdraws_it():
    env = Environment()
    disk = Resource(env, capacity=1)
    log = []

    def holder(env):
        yield from disk.serve(10.0)
        log.append(("holder-done", env.now))

    def canceller(env):
        yield env.timeout(1.0)
        req = disk.request()
        yield env.timeout(1.0)
        disk.release(req)  # withdraw while still queued
        log.append(("cancelled", env.now))

    def other(env):
        yield env.timeout(2.0)
        yield from disk.serve(5.0)
        log.append(("other-done", env.now))

    env.process(holder(env))
    env.process(canceller(env))
    env.process(other(env))
    env.run()
    # "other" must get the server at t=10 (canceller stepped aside).
    assert ("other-done", 15.0) in log


def test_interrupt_while_queued_releases_claim():
    env = Environment()
    disk = Resource(env, capacity=1)
    log = []

    def holder(env):
        yield from disk.serve(10.0)

    def victim(env):
        try:
            yield from disk.serve(5.0)
        except Interrupt:
            log.append("victim-interrupted")

    def other(env):
        yield env.timeout(2.0)
        yield from disk.serve(5.0)
        log.append(("other-done", env.now))

    env.process(holder(env))
    v = env.process(victim(env))

    def attacker(env):
        yield env.timeout(3.0)
        v.interrupt()

    env.process(attacker(env))
    env.process(other(env))
    env.run()
    assert "victim-interrupted" in log
    assert ("other-done", 15.0) in log


def test_interrupt_while_in_service_frees_server():
    env = Environment()
    disk = Resource(env, capacity=1)
    log = []

    def victim(env):
        try:
            yield from disk.serve(100.0)
        except Interrupt:
            log.append(("victim-out", env.now))

    def other(env):
        yield env.timeout(1.0)
        yield from disk.serve(5.0)
        log.append(("other-done", env.now))

    v = env.process(victim(env))

    def attacker(env):
        yield env.timeout(2.0)
        v.interrupt()

    env.process(attacker(env))
    env.process(other(env))
    env.run()
    assert log == [("victim-out", 2.0), ("other-done", 7.0)]


def test_utilization_accounting():
    env = Environment()
    disk = Resource(env, capacity=1)

    def job(env):
        yield from disk.serve(5.0)

    env.process(job(env))
    env.run(until=10.0)
    assert disk.utilization(10.0) == pytest.approx(0.5)


def test_infinite_server_never_queues():
    env = Environment()
    server = InfiniteServer(env)
    finish = []

    def job(env, tag):
        yield from server.serve(10.0)
        finish.append((tag, env.now))

    for tag in "abcde":
        env.process(job(env, tag))
    env.run()
    assert all(t == 10.0 for _, t in finish)
    assert len(finish) == 5
    assert server.queue_length == 0
    assert server.utilization(10.0) == 0.0


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    store.put("x")
    store.put("y")
    store.put("z")
    env.process(consumer(env))
    env.run()
    assert got == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(4.0)
        store.put("late-item")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late-item", 4.0)]


def test_store_len_counts_buffered_items():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1.0)
        store.put("a")
        store.put("b")

    env.process(producer(env))
    env.run()
    assert got == [("first", "a"), ("second", "b")]


# ----------------------------------------------------------------------
# One claim per service: interrupts around the grant, plain claims, and
# the same-instant tie order the golden fixtures depend on.
# ----------------------------------------------------------------------
KINDS = {
    "fcfs": lambda env: Resource(env, capacity=1),
    "priority": lambda env: PriorityResource(env, capacity=1),
    "infinite": lambda env: InfiniteServer(env),
}


def _spy_claims(server):
    """Record every claim ``server`` hands out (``serve`` included)."""
    claims = []
    request = server.request

    def spy(*args, **kwargs):
        claims.append(request(*args, **kwargs))
        return claims[-1]

    server.request = spy
    return claims


def _state(server, env):
    """The resource state an interrupt must leave as it always has."""
    return {"in_service": server.in_service,
            "queue_length": server.queue_length,
            "served": server._served,
            "busy": server.busy_snapshot(),
            "queue_integral": server.mean_queue_length(env.now) * env.now}


def _interrupt_scenario(kind, victim_start, victim_ms, attack_at):
    """A holder (0-10ms), a victim interrupted at ``attack_at`` and a
    later job (from 2ms, 5ms); ``victim_ms`` must differ from the other
    services' durations, which tells the victim's claim apart.  Returns the log, the server's state, the
    victim's claim and the clock after the run."""
    env = Environment()
    server = KINDS[kind](env)
    claims = _spy_claims(server)
    log = []

    def attacker(env):
        yield env.timeout(attack_at)
        if victim.is_alive:
            victim.interrupt("abort")

    def holder(env):
        yield from server.serve(10.0)
        log.append(("holder", env.now))

    def victim_job(env):
        if victim_start:
            yield env.timeout(victim_start)
        try:
            yield from server.serve(victim_ms)
            log.append(("victim-done", env.now))
        except Interrupt:
            log.append(("victim-interrupted", env.now))

    def other(env):
        yield env.timeout(2.0)
        yield from server.serve(5.0)
        log.append(("other", env.now))

    def watcher(env):
        # Half a millisecond after the attack, who still waits on the
        # victim's claim?  (Nobody, if the interrupt detached it.)
        yield env.timeout(attack_at + 0.5)
        (claim,) = [c for c in claims if c.duration == victim_ms]
        if claim.callbacks is not None:
            log.append(("waiters", len(claim.callbacks)))

    # The attacker is created first, so at a shared instant its timeout
    # (and hence the interrupt) comes before the victim's own events.
    env.process(attacker(env))
    env.process(holder(env))
    victim = env.process(victim_job(env))
    env.process(other(env))
    env.process(watcher(env))
    env.run()
    (victim_claim,) = [c for c in claims if c.duration == victim_ms]
    return log, _state(server, env), victim_claim, env.now


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_interrupt_while_queued(kind):
    """(a) The victim is queued behind the holder when interrupted."""
    log, state, claim, end = _interrupt_scenario(kind, 0.0, 6.0, 3.0)
    assert ("victim-interrupted", 3.0) in log
    if kind == "infinite":
        # Nothing queues: the victim was in service (0-6ms) and counts
        # nothing; its abandoned completion still pops at 6ms.
        assert log == [("victim-interrupted", 3.0), ("waiters", 0),
                       ("other", 7.0), ("holder", 10.0)]
        assert state == {"in_service": 0, "queue_length": 0, "served": 2,
                         "busy": 15.0, "queue_integral": 0.0}
        assert claim.processed
    else:
        assert log == [("victim-interrupted", 3.0), ("waiters", 0),
                       ("holder", 10.0), ("other", 15.0)]
        # Victim queued 0-3ms, other 2-10ms; only two services ran.
        assert state == {"in_service": 0, "queue_length": 0, "served": 2,
                         "busy": 15.0, "queue_integral": 11.0}
        assert not claim.triggered  # withdrawn: never scheduled
    assert end == (10.0 if kind == "infinite" else 15.0)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_interrupt_in_the_instant_of_the_grant(kind):
    """(b) The interrupt is processed at the grant's instant but before
    the grant: the claim is released as granted and its service never
    starts (a queuing server), or is cut short at once (infinite)."""
    log, state, claim, end = _interrupt_scenario(kind, 0.0, 6.0, 10.0)
    if kind == "infinite":
        # The victim finished at 6ms; the attack found it gone.
        assert ("victim-done", 6.0) in log
        assert state["served"] == 3
        return
    # The holder releases at 10ms and grants the victim, but the
    # attacker's interrupt at 10ms was scheduled first.
    assert log == [("holder", 10.0), ("victim-interrupted", 10.0),
                   ("waiters", 0), ("other", 15.0)]
    # The released grant counts as served, as a granted claim always has;
    # the busy integral never sees it.
    assert state == {"in_service": 0, "queue_length": 0, "served": 3,
                     "busy": 15.0, "queue_integral": 18.0}
    assert not claim.triggered and not claim.granted
    assert end == 15.0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_interrupt_in_the_instant_of_a_free_grant(kind):
    """(b) as above, on a server that is free when the victim asks."""
    env = Environment()
    server = KINDS[kind](env)
    claims = _spy_claims(server)
    log = []

    def attacker(env):
        yield env.timeout(1.0)
        victim.interrupt("abort")

    def victim_job(env):
        yield env.timeout(1.0)
        try:
            yield from server.serve(5.0)
        except Interrupt:
            log.append(("victim-interrupted", env.now))

    def other(env):
        yield env.timeout(2.0)
        yield from server.serve(5.0)
        log.append(("other", env.now))

    env.process(attacker(env))
    victim = env.process(victim_job(env))
    env.process(other(env))
    env.run()
    (claim, _) = claims
    assert log == [("victim-interrupted", 1.0), ("other", 7.0)]
    assert claim.callbacks in ([], None)  # nobody resumed by it
    if kind == "infinite":
        assert _state(server, env) == {
            "in_service": 0, "queue_length": 0, "served": 1, "busy": 5.0,
            "queue_integral": 0.0}
    else:
        assert not claim.triggered
        assert _state(server, env) == {
            "in_service": 0, "queue_length": 0, "served": 2, "busy": 5.0,
            "queue_integral": 0.0}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_interrupt_in_service(kind):
    """(c) The victim holds a server when interrupted; its abandoned
    completion still pops at the scheduled end and resumes nobody."""
    log, state, claim, end = _interrupt_scenario(kind, 16.0, 100.0, 18.0)
    assert log[-2:] == [("victim-interrupted", 18.0), ("waiters", 0)]
    assert claim.triggered and claim.processed
    assert end == 116.0
    if kind == "infinite":
        assert state == {"in_service": 0, "queue_length": 0, "served": 2,
                         "busy": 15.0, "queue_integral": 0.0}
    else:
        # Holder 0-10, other 10-15 (queued 2-10), victim 16-18.
        assert state == {"in_service": 0, "queue_length": 0, "served": 3,
                         "busy": 17.0, "queue_integral": 8.0}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_negative_duration_raises(kind):
    env = Environment()
    server = KINDS[kind](env)
    with pytest.raises(ValueError):
        server.request(PRIORITY_DATA, -1.0)

    def job(env):
        yield from server.serve(-1.0)

    env.process(job(env))
    with pytest.raises(ValueError):
        env.run()
    assert (server.in_service, server.queue_length) == (0, 0)


@pytest.mark.parametrize("kind", ["fcfs", "priority"])
def test_plain_claim_triggers_at_grant_and_is_held_until_release(kind):
    env = Environment()
    server = KINDS[kind](env)
    first = server.request()
    second = server.request()
    assert first.triggered and not second.triggered
    assert (server.in_service, server.queue_length) == (1, 1)
    granted_at = []

    def waiter(env):
        yield second
        granted_at.append(env.now)

    env.process(waiter(env))
    env.run(until=4.0)
    assert granted_at == []
    server.release(first)
    env.run()
    # Granted at the release, not after any service time.
    assert granted_at == [4.0]
    assert (server.in_service, server.queue_length) == (1, 0)
    server.release(second)
    assert server.in_service == 0
    assert server._served == 2
    assert server.utilization(4.0) == pytest.approx(1.0)


def test_plain_claim_on_infinite_server_triggers_now():
    env = Environment()
    server = InfiniteServer(env)
    claim = server.request()
    assert claim.triggered
    env.run()
    server.release(claim)
    assert server._served == 1
    assert server.busy_snapshot() == 0.0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_same_instant_equal_services_complete_in_request_order(kind):
    """Equal-duration services started in the same instant complete in
    the order they were requested (the heap breaks the tie by event
    id), on a free server and after a hand-over from the queue."""
    env = Environment()
    if kind == "infinite":
        server = InfiniteServer(env)
    else:
        server = (Resource if kind == "fcfs" else PriorityResource)(
            env, capacity=3)
    order = []

    def job(env, tag, start):
        yield env.timeout(start)
        yield from server.serve(5.0)
        order.append((tag, env.now))

    for tag in "abc":
        env.process(job(env, tag, 0.0))
    for tag in "def":
        env.process(job(env, tag, 5.0))
    env.run()
    assert order == [("a", 5.0), ("b", 5.0), ("c", 5.0),
                     ("d", 10.0), ("e", 10.0), ("f", 10.0)]


def test_queued_hand_overs_in_one_instant_complete_in_grant_order():
    env = Environment()
    cpu = PriorityResource(env, capacity=2)
    order = []

    def job(env, tag, priority):
        yield from cpu.serve(5.0, priority=priority)
        order.append((tag, env.now))

    for tag in "ab":
        env.process(job(env, tag, PRIORITY_DATA))
    env.process(job(env, "data", PRIORITY_DATA))
    env.process(job(env, "msg", PRIORITY_MESSAGE))
    env.run()
    # a and b release at 5ms in that order: a's server goes to the
    # message (priority), b's to the data job.
    assert order == [("a", 5.0), ("b", 5.0), ("msg", 10.0),
                     ("data", 10.0)]
