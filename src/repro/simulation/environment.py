"""The per-process environment handed to protocol code.

:class:`ProcessEnvironment` implements
:class:`repro.core.interfaces.EnvironmentAPI`: it is the *only* object a
protocol process ever touches.  It deliberately exposes nothing that would
break the paper's system model:

* no process identifiers (the index is stored privately for the engine's
  bookkeeping only),
* no clock (times are recorded engine-side),
* no topology or channel access beyond the anonymous ``broadcast``.

A pickled environment leaves its engine behind (see
:meth:`ProcessEnvironment.__reduce__`): a finished run's processes cross a
process boundary with their state, not with the network, queue and
detectors that drove them.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from ..core.messages import TaggedMessage
from ..failure_detectors.base import FailureDetectorView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import SimulationEngine


class _DetachedEngine:
    """Stands in for the engine of an environment unpickled after its run."""

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        raise RuntimeError(
            "this process environment was unpickled from a finished run and "
            f"has no engine (protocol code called into it: {name!r}); only "
            "live runs can broadcast, read detectors or report deliveries"
        )


_DETACHED = _DetachedEngine()


def _detached(index: int, rng: random.Random) -> "ProcessEnvironment":
    """Unpickle a :class:`ProcessEnvironment` without an engine."""
    env = ProcessEnvironment.__new__(ProcessEnvironment)
    env._index = index
    env._engine = _DETACHED
    env._random = rng
    return env


class ProcessEnvironment:
    """Anonymous runtime environment of one simulated process."""

    def __init__(self, index: int, engine: "SimulationEngine") -> None:
        self._index = index
        self._engine = engine
        self._random = engine.random_source.for_process(index)

    def __reduce__(self) -> tuple:
        # Only the index and the process's random substream travel: the
        # engine (network, event queue, detectors, batch consumers) stays
        # with the run that owned it.
        return _detached, (self._index, self._random)

    # ------------------------------------------------------------------ #
    # EnvironmentAPI
    # ------------------------------------------------------------------ #
    def broadcast(self, payload: Any) -> None:
        """The paper's ``broadcast(m)``: one copy to every process."""
        self._engine.broadcast_from(self._index, payload)

    @property
    def random(self) -> random.Random:
        """Process-local random substream (tags)."""
        return self._random

    def atheta(self) -> FailureDetectorView:
        """Read the AΘ variable (empty view if no detector is configured)."""
        return self._engine.atheta_view(self._index)

    def apstar(self) -> FailureDetectorView:
        """Read the AP\\* variable (empty view if no detector is configured)."""
        return self._engine.apstar_view(self._index)

    def notify_delivery(self, message: TaggedMessage) -> None:
        """Report a URB-delivery to the platform (tracing/metrics/hooks)."""
        self._engine.on_process_delivered(self._index, message)

    def notify_retire(self, message: TaggedMessage) -> None:
        """Report the retirement of *message* from the retransmission set."""
        self._engine.on_process_retired(self._index, message)

    # ------------------------------------------------------------------ #
    # engine-side helpers (not part of EnvironmentAPI)
    # ------------------------------------------------------------------ #
    @property
    def engine_index(self) -> int:
        """The process index — for engine/analysis use, never protocol code."""
        return self._index
