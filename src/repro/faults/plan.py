"""Fault configuration and the deterministic fault plan.

:class:`FaultConfig` is the user-facing knob set (CLI flags ``--faults``,
``--mttf-ms``, ``--mttr-ms``, ``--msg-loss`` map straight onto it);
:class:`FaultPlan` turns a config plus the system's named RNG streams
into concrete, reproducible crash/recover cycles and message-loss draws.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.region import RegionDirective, RegionPlan

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RandomStreams


@dataclasses.dataclass(frozen=True)
class CrashEvent:
    """One scheduled crash: ``site_id`` goes down at ``at_ms`` for
    ``duration_ms``."""

    site_id: int
    at_ms: float
    duration_ms: float


@dataclasses.dataclass(frozen=True)
class DecisionStall:
    """The coordinator of ``txn_id`` goes silent for ``duration_ms``
    just before forcing its COMMIT decision record, with its site up
    and every cohort prepared (3PC: precommitted); it then completes
    the protocol.  The master failure of the paper's Section 2.4."""

    txn_id: int
    duration_ms: float


@dataclasses.dataclass(frozen=True)
class FaultTimeouts:
    """Protocol-layer timeouts (only consulted while faults are active).

    Defaults are calibrated against the baseline response time (a few
    hundred ms at moderate MPL): long enough that healthy traffic never
    times out spuriously, short enough that failures resolve well inside
    a typical MTTR.
    """

    #: master's wait for each cohort work-completion report.
    work_timeout_ms: float = 5_000.0
    #: master's wait for each vote; cohort's wait for PREPARE.
    vote_timeout_ms: float = 2_000.0
    #: cohort's wait for the global decision (then: status inquiry).
    decision_timeout_ms: float = 1_500.0
    #: master's wait for decision ACKs (expired ACKs are abandoned --
    #: the cohorts resolve themselves).
    ack_timeout_ms: float = 1_500.0
    #: pause between status-inquiry retries while the master site is
    #: unreachable or the master is still undecided.
    resolve_retry_ms: float = 500.0

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) <= 0:
                raise ValueError(f"{field.name} must be > 0")


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Everything the fault plane can inject.

    The default instance is *inactive* (no crashes, no loss): attaching
    it to a system wires nothing and changes nothing.
    """

    #: mean time to failure per site (exponential); 0 disables
    #: stochastic crashes.
    mttf_ms: float = 0.0
    #: mean time to repair (exponential), used with ``mttf_ms``.
    mttr_ms: float = 2_000.0
    #: per-remote-message loss probability.
    msg_loss_prob: float = 0.0
    #: mean extra wire delay per remote message (exponential); 0
    #: disables delay injection (the paper's zero-latency switch).
    msg_delay_ms: float = 0.0
    #: message kinds subject to loss/delay, by :class:`MessageKind`
    #: value (e.g. ``("VOTE_YES", "COMMIT")``); None = every kind.
    faulty_kinds: tuple[str, ...] | None = None
    #: explicit crash schedule (applied in addition to MTTF cycles).
    crash_schedule: tuple[CrashEvent, ...] = ()
    #: sites eligible for stochastic crashes (None = all sites).
    crashable_sites: tuple[int, ...] | None = None
    timeouts: FaultTimeouts = FaultTimeouts()
    #: correlated-failure plan (whole-DC outages, link partitions) over
    #: the active multi-datacenter topology; None = no region faults.
    region: RegionPlan | None = None
    #: a coordinator stall before its COMMIT record; None = no stall.
    decision_stall: DecisionStall | None = None

    @property
    def is_active(self) -> bool:
        """True when the config injects anything at all."""
        return (self.mttf_ms > 0 or self.msg_loss_prob > 0
                or self.msg_delay_ms > 0 or bool(self.crash_schedule)
                or (self.region is not None
                    and bool(self.region.directives))
                or self.decision_stall is not None)

    def validate(self) -> None:
        if self.mttf_ms < 0:
            raise ValueError("mttf_ms must be >= 0")
        if self.mttr_ms <= 0:
            raise ValueError("mttr_ms must be > 0")
        if not 0.0 <= self.msg_loss_prob < 1.0:
            raise ValueError("msg_loss_prob must be in [0, 1)")
        if self.msg_delay_ms < 0:
            raise ValueError("msg_delay_ms must be >= 0")
        if self.faulty_kinds is not None:
            from repro.db.messages import MessageKind
            known = {kind.value for kind in MessageKind}
            for name in self.faulty_kinds:
                if name not in known:
                    raise ValueError(f"unknown message kind {name!r}")
        for event in self.crash_schedule:
            if event.at_ms < 0 or event.duration_ms <= 0:
                raise ValueError(f"bad crash schedule entry {event}")
        if self.region is not None:
            self.region.validate()
        stall = self.decision_stall
        if stall is not None and (stall.txn_id < 0
                                  or stall.duration_ms <= 0):
            raise ValueError(f"bad decision stall {stall}")
        self.timeouts.validate()


class FaultPlan:
    """Deterministic realization of a :class:`FaultConfig`.

    Crash cycles for each site are drawn lazily from that site's own
    stream (``faults-site-<id>``) so sites are independent and the
    draw order cannot depend on event-loop interleaving; message-loss
    and message-delay draws come from ``faults-msgloss`` /
    ``faults-msgdelay`` in network send order (itself deterministic).
    """

    def __init__(self, config: FaultConfig, streams: "RandomStreams",
                 num_sites: int) -> None:
        config.validate()
        self.config = config
        self.num_sites = num_sites
        self._streams = streams
        self._loss_rng = streams.stream("faults-msgloss")
        self._delay_rng = streams.stream("faults-msgdelay")
        self._faulty_kinds = (None if config.faulty_kinds is None
                              else frozenset(config.faulty_kinds))

    # ------------------------------------------------------------------
    def scheduled_crashes(self, site_id: int) -> list[CrashEvent]:
        """The explicit crash events for one site, in time order."""
        return sorted((e for e in self.config.crash_schedule
                       if e.site_id == site_id), key=lambda e: e.at_ms)

    def stochastic_sites(self) -> list[int]:
        """Sites running an MTTF/MTTR crash cycle."""
        if self.config.mttf_ms <= 0:
            return []
        if self.config.crashable_sites is not None:
            return [s for s in self.config.crashable_sites
                    if 0 <= s < self.num_sites]
        return list(range(self.num_sites))

    def crash_cycle(self, site_id: int,
                    ) -> typing.Iterator[tuple[float, float]]:
        """Infinite ``(uptime_ms, downtime_ms)`` draws for one site."""
        rng = self._streams.stream(f"faults-site-{site_id}")
        mttf, mttr = self.config.mttf_ms, self.config.mttr_ms
        while True:
            yield rng.expovariate(1.0 / mttf), rng.expovariate(1.0 / mttr)

    def region_directives(self) -> tuple[RegionDirective, ...]:
        """The correlated-failure directives of this plan (maybe empty)."""
        region = self.config.region
        return () if region is None else region.directives

    def region_cycle(self, directive: RegionDirective,
                     ) -> typing.Iterator[tuple[float, float]]:
        """Infinite ``(healthy_ms, outage_ms)`` draws for one stochastic
        directive, from its dedicated stream (``faults-dc-<dc>`` /
        ``faults-partition-<a>-<b>``)."""
        rng = self._streams.stream(directive.stream_name)
        while True:
            yield (rng.expovariate(1.0 / directive.mttf_ms),
                   rng.expovariate(1.0 / directive.mttr_ms))

    def affects_kind(self, kind_name: str) -> bool:
        """Whether loss/delay injection applies to this message kind."""
        return self._faulty_kinds is None or kind_name in self._faulty_kinds

    def lose_message(self, kind_name: str) -> bool:
        """Draw whether the next remote message is lost."""
        prob = self.config.msg_loss_prob
        if prob <= 0 or not self.affects_kind(kind_name):
            return False
        return self._loss_rng.random() < prob

    def message_delay(self, kind_name: str) -> float:
        """Draw the next remote message's extra wire delay in ms."""
        mean = self.config.msg_delay_ms
        if mean <= 0 or not self.affects_kind(kind_name):
            return 0.0
        return self._delay_rng.expovariate(1.0 / mean)
