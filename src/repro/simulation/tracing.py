"""Structured trace recording.

A :class:`TraceRecorder` collects a flat, time-ordered list of
:class:`TraceEvent` records describing everything observable about a run:
sends, drops, channel deliveries, URB-deliveries, crashes, broadcasts and
retransmission rounds.  The analysis layer (``repro.analysis``) is written
entirely against traces, which keeps property checking independent from the
protocol implementations being checked.

A pickled recorder carries its events as flat columns (see
:meth:`TraceRecorder.__getstate__`) and rebuilds the event list only when
something first reads it, so shipping a finished run's trace across a
process boundary costs a few arrays rather than one object per event.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from .columns import pack
from .simtime import SimTime


class TraceLevel(enum.IntEnum):
    """How much a :class:`TraceRecorder` records.

    Levels are cumulative: each level records everything the level below it
    does.  ``FULL`` (the default) reproduces the historic behaviour exactly;
    ``DELIVERIES`` keeps only protocol-level observables (broadcasts,
    deliveries, crashes, retirements) and skips the per-copy channel events
    that dominate trace size; ``OFF`` records nothing (equivalent to
    ``enabled=False``).
    """

    OFF = 0
    DELIVERIES = 1
    FULL = 2


class TraceCategory(enum.Enum):
    """Categories of observable run events."""

    #: The application layer invoked ``URB_broadcast(m)`` at a process.
    URB_BROADCAST = "urb_broadcast"
    #: A process handed one protocol payload to one directed channel.
    SEND = "send"
    #: The channel dropped the payload (fair lossy behaviour).
    DROP = "drop"
    #: The payload reached the destination process.
    CHANNEL_DELIVER = "channel_deliver"
    #: A process URB-delivered an application message.
    URB_DELIVER = "urb_deliver"
    #: A process crashed.
    CRASH = "crash"
    #: A retransmission round executed (possibly sending nothing).
    TICK = "tick"
    #: A process removed a message from its retransmission set (Algorithm 2).
    RETIRE = "retire"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Minimum :class:`TraceLevel` at which each category is recorded.
CATEGORY_LEVELS: dict[TraceCategory, TraceLevel] = {
    TraceCategory.URB_BROADCAST: TraceLevel.DELIVERIES,
    TraceCategory.URB_DELIVER: TraceLevel.DELIVERIES,
    TraceCategory.CRASH: TraceLevel.DELIVERIES,
    TraceCategory.RETIRE: TraceLevel.DELIVERIES,
    TraceCategory.SEND: TraceLevel.FULL,
    TraceCategory.DROP: TraceLevel.FULL,
    TraceCategory.CHANNEL_DELIVER: TraceLevel.FULL,
    TraceCategory.TICK: TraceLevel.FULL,
}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observable event of a simulated run.

    Attributes
    ----------
    time:
        Simulated time of the event.
    category:
        The :class:`TraceCategory`.
    process:
        The index of the process the event concerns.  For channel events
        this is the *source* process; the destination is in ``details``.
    details:
        Category-specific payload (kept as a plain mapping so traces are
        cheap to build and easy to serialise).
    """

    time: SimTime
    category: TraceCategory
    process: int
    details: Mapping[str, Any] = field(default_factory=dict)

    def detail(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``details.get(key, default)``."""
        return self.details.get(key, default)


#: Category codes of the columnar (pickled) trace form: index in this tuple.
_CATEGORIES = tuple(TraceCategory)
_CATEGORY_CODES = {category: code for code, category in enumerate(_CATEGORIES)}


def _to_columns(events: list[TraceEvent]) -> Optional[tuple]:
    """Flatten *events* into ``(times, category codes, processes, schemas,
    schema ids, values)``, or ``None`` if they do not fit that form.

    A *schema* is one details-key tuple, interned; ``values`` concatenates
    every event's details values, each event taking as many as its schema
    has keys.  Only plain :class:`TraceEvent` objects with ``dict`` details are
    flattened, so :func:`_from_columns` rebuilds equal events of the same
    types.
    """
    schemas: dict[tuple[str, ...], int] = {}
    schema_ids = []
    values: list[Any] = []
    for event in events:
        details = event.details
        if type(event) is not TraceEvent or type(details) is not dict:
            return None
        keys = tuple(details)
        schema_id = schemas.get(keys)
        if schema_id is None:
            schema_id = schemas[keys] = len(schemas)
        schema_ids.append(schema_id)
        values.extend(details.values())
    return (
        pack([event.time for event in events], float),
        bytes([_CATEGORY_CODES[event.category] for event in events]),
        pack([event.process for event in events], int),
        tuple(schemas),
        pack(schema_ids, int),
        values,
    )


def _from_columns(columns: tuple) -> list[TraceEvent]:
    """Rebuild the event list :func:`_to_columns` flattened."""
    times, codes, processes, schemas, schema_ids, values = columns
    widths = [len(keys) for keys in schemas]
    categories = _CATEGORIES
    events = []
    append = events.append
    start = 0
    for time, code, process, schema_id in zip(times, codes, processes,
                                              schema_ids):
        end = start + widths[schema_id]
        append(TraceEvent(time, categories[code], process,
                          dict(zip(schemas[schema_id], values[start:end]))))
        start = end
    return events


_PLAIN_TYPES = (str, int, float, bool, type(None), bytes)


def _canonical_repr(value: Any, memo: dict[int, str]) -> str:
    """``repr`` of *value* with every set's members in sorted order.

    A set's iteration order depends on its insertion history, which a
    pickle round trip does not preserve; sorting the members' canonical
    forms makes the text a function of the value alone.  Tuples and
    dataclasses (the wire payloads) are expanded item by item so sets
    nested inside them are reached too.  *memo* caches the text of shared objects by identity;
    it must not outlive the objects it was filled from.
    """
    if type(value) in _PLAIN_TYPES:
        return repr(value)
    key = id(value)
    text = memo.get(key)
    if text is not None:
        return text
    if isinstance(value, (set, frozenset)):
        members = sorted(_canonical_repr(item, memo) for item in value)
        text = f"{type(value).__name__}({{{', '.join(members)}}})"
    elif type(value) is tuple:
        items = [_canonical_repr(item, memo) for item in value]
        text = f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        text = f"{type(value).__qualname__}(" + ", ".join(
            f"{f.name}={_canonical_repr(getattr(value, f.name), memo)}"
            for f in dataclasses.fields(value) if f.repr) + ")"
    else:
        text = repr(value)
    memo[key] = text
    return text


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records in arrival order.

    The recorder can be disabled (``enabled=False``) for large benchmark
    runs where only aggregate metrics are needed; recording then becomes a
    no-op while counters in :class:`repro.simulation.metrics.MetricsCollector`
    keep working.  The *level* knob (:class:`TraceLevel`) offers a middle
    ground: ``DELIVERIES`` keeps protocol-level observables while skipping
    the per-copy channel events.

    The engine gates its hot-path recording calls on the plain boolean
    attributes ``channel_active`` / ``protocol_active`` so that disabled
    categories cost a single attribute read per event — no keyword-dict
    construction, no method call.
    """

    def __init__(self, enabled: bool = True,
                 level: TraceLevel = TraceLevel.FULL) -> None:
        self._enabled = bool(enabled)
        self._level = TraceLevel(level)
        self._events: list[TraceEvent] = []
        #: Run-level metadata (schedule provenance: strategy, seed, decision
        #: hash) written by the engine at the end of a run so serialised
        #: traces carry everything needed to replay them.  Populated even
        #: when event recording is disabled.
        self.header: dict[str, Any] = {}
        #: Fast flags read by the engine before building record() arguments.
        self.channel_active: bool = False
        self.protocol_active: bool = False
        self._refresh_flags()

    # ------------------------------------------------------------------ #
    # pickling: flat columns, events rebuilt on first read
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        # A recorder unpickled and never read still holds its columns (and
        # no "_events"): it re-emits them as they are.
        events = state.pop("_events", None)
        if events is not None:
            columns = _to_columns(events)
            if columns is None:
                state["_events"] = events
            else:
                state["_columns"] = columns
        return state

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails, so the live recorder's
        # record()/append path never comes here.
        if name == "_events":
            columns = self.__dict__.pop("_columns", None)
            if columns is not None:
                events = self._events = _from_columns(columns)
                return events
        raise AttributeError(name)

    def _refresh_flags(self) -> None:
        active = self._enabled and self._level > TraceLevel.OFF
        self.protocol_active = active and self._level >= TraceLevel.DELIVERIES
        self.channel_active = active and self._level >= TraceLevel.FULL

    @property
    def enabled(self) -> bool:
        """Whether the recorder records anything at all."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._refresh_flags()

    @property
    def level(self) -> TraceLevel:
        """The recording level (see :class:`TraceLevel`)."""
        return self._level

    @level.setter
    def level(self, value: TraceLevel) -> None:
        self._level = TraceLevel(value)
        self._refresh_flags()

    def wants(self, category: TraceCategory) -> bool:
        """Whether events of *category* would currently be recorded."""
        return (self._enabled
                and self._level >= CATEGORY_LEVELS[category])

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(
        self,
        time: SimTime,
        category: TraceCategory,
        process: int,
        **details: Any,
    ) -> Optional[TraceEvent]:
        """Append one event (no-op when the recorder is disabled or the
        category is gated out by the recording level)."""
        if not self._enabled or self._level < CATEGORY_LEVELS[category]:
            return None
        event = TraceEvent(time=time, category=category, process=process,
                           details=details)
        self._events.append(event)
        return event

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append pre-built events (used when merging sub-traces)."""
        if self.enabled:
            self._events.extend(events)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All recorded events, in recording order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def filter(
        self,
        category: Optional[TraceCategory] = None,
        process: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> list[TraceEvent]:
        """Return events matching the given criteria.

        Parameters
        ----------
        category:
            Keep only events of this category.
        process:
            Keep only events whose ``process`` field equals this index.
        predicate:
            Arbitrary extra filter applied last.
        """
        result = []
        for event in self._events:
            if category is not None and event.category is not category:
                continue
            if process is not None and event.process != process:
                continue
            if predicate is not None and not predicate(event):
                continue
            result.append(event)
        return result

    def count(self, category: TraceCategory) -> int:
        """Number of recorded events of *category*."""
        return sum(1 for event in self._events if event.category is category)

    def last_time(self, category: TraceCategory) -> Optional[SimTime]:
        """Time of the last event of *category*, or ``None`` if none."""
        result: Optional[SimTime] = None
        for event in self._events:
            if event.category is category:
                result = event.time
        return result

    def first_time(self, category: TraceCategory) -> Optional[SimTime]:
        """Time of the first event of *category*, or ``None`` if none."""
        for event in self._events:
            if event.category is category:
                return event.time
        return None

    def timeline(self, category: TraceCategory,
                 bucket: float) -> list[tuple[SimTime, int]]:
        """Histogram of *category* events over time.

        Returns a list of ``(bucket_start, count)`` pairs covering the span
        of the trace with buckets of width *bucket*.
        """
        if bucket <= 0:
            raise ValueError("bucket width must be positive")
        selected = [e.time for e in self._events if e.category is category]
        if not selected:
            return []
        end = max(selected)
        n_buckets = int(end // bucket) + 1
        counts = [0] * n_buckets
        for t in selected:
            counts[int(t // bucket)] += 1
        return [(i * bucket, counts[i]) for i in range(n_buckets)]

    def digest(self) -> str:
        """Stable SHA-256 digest of the recorded trace.

        Two runs are considered bit-identical when their digests match; the
        determinism parity tests compare digests across hot-path
        configurations (see tests/unit/test_determinism_parity.py).  Set
        values (the label sets of Algorithm 2's ACKs) are hashed with their
        members sorted, so the digest also survives a pickle round trip.
        """
        import hashlib

        h = hashlib.sha256()
        memo: dict[int, str] = {}
        for event in self._events:
            details = ", ".join(
                f"({key!r}, {_canonical_repr(value, memo)})"
                for key, value in sorted(event.details.items())
            )
            h.update(
                f"({event.time!r}, {event.category.value!r}, "
                f"{event.process!r}, [{details}])".encode("utf-8")
            )
        return h.hexdigest()

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialise the trace as a list of plain dictionaries."""
        return [
            {
                "time": event.time,
                "category": event.category.value,
                "process": event.process,
                **dict(event.details),
            }
            for event in self._events
        ]
