"""In-memory span recording around calls into the library's layers.

:class:`Tracer` replaces selected functions and methods with wrappers that
record one span per call: name, start, end and parent span.  Nothing in the
library is edited; the wrappers are installed on the live modules and
classes and removed again by :meth:`Tracer.uninstall`.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of all
spans under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Tracer:
    """Records spans; see the module docs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: Targets asked for but absent from this build of the library.
        self.missing: list[str] = []
        #: ``consume_mode`` of every engine run, in run order.
        self.consume_modes: list[Any] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the ``with`` body as one span named *name*."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, owner: Any, attribute: str, name: str,
             after: Any = None) -> None:
        """Record every call of ``owner.attribute`` as a span *name*.

        *after*, if given, is called with the call's positional arguments
        once the call returns.  A target missing from the library is noted
        in :attr:`missing` and skipped, so the layer simply reports no time.
        """
        # On a class, only an attribute it defines itself: wrapping an
        # inherited one would shadow the base class's own wrapper.
        original = owner.__dict__.get(attribute) if isinstance(owner, type) \
            else getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        opened, closed = self._open, self._close

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = opened(name)
            try:
                value = original(*args, **kwargs)
            finally:
                closed(index)
            if after is not None:
                after(args)
            return value

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        """Restore every wrapped target."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def duration_s(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) / 1e9

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (total self seconds, calls)`` over every span."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, list] = {}
        for index, name in enumerate(self.names):
            own = self.ends[index] - self.starts[index] - child_ns[index]
            entry = totals.setdefault(name, [0, 0])
            entry[0] += own
            entry[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": self.parents[index],
                    "start_ns": self.starts[index], "end_ns": self.ends[index],
                }, separators=(",", ":")) + "\n")


#: ``(module, class or None, attribute, span name)`` of every traced call.
LAYER_TARGETS = (
    ("repro.experiments.runner", None, "run_scenario", "runner.cell"),
    ("repro.experiments.batch", None, "run_scenario", "runner.cell"),
    ("repro.experiments.runner", None, "build_engine", "runner.build"),
    ("repro.simulation.engine", "SimulationEngine", "run", "simulation.run"),
    ("repro.simulation.vectorized", "VectorizedEngine", "run", "simulation.run"),
    ("repro.simulation.vectorized", "VectorizedEngine", "_gather_slice_pids",
     "vectorized.gather"),
    ("repro.simulation.vectorized", "_RowSampler", "broadcast",
     "vectorized.sample"),
    ("repro.core.algorithm1", "Algorithm1BatchConsumer", "consume_acks",
     "vectorized.consume_acks"),
    ("repro.core.algorithm2", "Algorithm2BatchConsumer", "consume_acks",
     "vectorized.consume_acks"),
    ("repro.simulation.vectorized", "VectorizedEngine", "_merge_per_entry",
     "vectorized.per_entry"),
    ("repro.experiments.runner", None, "check_urb_properties",
     "analysis.verdict"),
    ("repro.experiments.runner", None, "analyze_quiescence",
     "analysis.quiescence"),
    ("repro.experiments.runner", None, "audit_anonymity", "analysis.anonymity"),
    ("repro.campaigns.campaign", None, "scenario_cell_key", "hashing.cell_key"),
    ("repro.campaigns.store", "ResultStore", "put_many", "store.put"),
    ("repro.campaigns.store", "ResultStore", "contains", "store.contains"),
)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every :data:`LAYER_TARGETS` call; engine runs also record which
    ``consume_mode`` they took."""

    def record_mode(args: tuple) -> None:
        tracer.consume_modes.append(getattr(args[0], "consume_mode", None))

    for module_name, class_name, attribute, name in LAYER_TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
            if owner is None:
                tracer.missing.append(f"{module_name}.{class_name}")
                continue
        after = record_mode if (class_name, attribute) == \
            ("VectorizedEngine", "run") else None
        tracer.wrap(owner, attribute, name, after=after)
