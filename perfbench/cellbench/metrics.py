"""Metric declarations shared by the driver, the workload process and the tests.

``END_TO_END`` metrics are measured with tracing off (``--trace 0``);
``PER_LAYER`` metrics come from a ``--trace 1`` run.  Every workload emits
every declared metric: a layer a workload never reaches reports ``0.0``
(see ``LAYERS_BY_WORKLOAD`` for the layers each workload exercises).
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
from pathlib import Path

#: name -> unit.  Order is the print order.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "passed_cell_frac": "ratio",
}

#: name -> (unit, meaning).  ``*_s`` layer times are self seconds per cell
#: of the traced round (span duration minus its child spans).
PER_LAYER: dict[str, tuple[str, str]] = {
    "runner.build_s": ("s/cell", "build_engine self time"),
    "simulation.run_s": ("s/cell", "engine run() self time: MSG replay + queue dispatch"),
    "simulation.events": ("count", "events dispatched in round 0 (exact)"),
    "simulation.batched_frac": ("ratio", "cells whose engine consumed deliveries batched"),
    "vectorized.gather_s": ("s/cell", "VectorizedEngine._gather_slice_pids self time"),
    "vectorized.sample_s": ("s/cell", "_RowSampler.broadcast self time"),
    "vectorized.consume_acks_s": ("s/cell", "Algorithm{1,2}BatchConsumer.consume_acks self time"),
    "vectorized.per_entry_s": ("s/cell", "VectorizedEngine._merge_per_entry self time"),
    "analysis.verdict_s": ("s/cell", "check_urb_properties self time"),
    "analysis.quiescence_s": ("s/cell", "analyze_quiescence self time"),
    "analysis.anonymity_s": ("s/cell", "audit_anonymity self time"),
    "analysis.checked_frac": ("ratio", "cells whose three URB verdicts all have checked > 0"),
    "batch.result_mb": ("MB/cell", "mean pickle.dumps(ScenarioResult) size"),
    "batch.pickle_s": ("s/cell", "pickle dumps + loads of each result, timed in the benchmark"),
    "batch.parallel_efficiency": ("ratio", "sum of cell wall_time / (wall x workers), untraced"),
    "hashing.cell_key_s": ("s/cell", "scenario_cell_key self time"),
    "store.put_s": ("s/cell", "ResultStore.put_many self time"),
    "store.blob_kb": ("KB/cell", "compressed result blob bytes per cell"),
    "store.contains_s": ("s/cell", "ResultStore.contains self time"),
    "store.hits": ("count", "store lookups answered by a stored cell (exact)"),
    "campaign.resume_cells_per_s": ("cells/s", "cells answered from the store by a resume=True re-run"),
    "network.sends_per_delivery": ("ratio", "total channel sends / URB deliveries (exact)"),
    "trace.overhead": ("ratio", "traced wall / untraced wall of the same round, minus 1"),
}

#: Span name of each timed layer metric (metric = span self time per cell).
LAYER_SPANS: dict[str, str] = {
    "runner.build_s": "runner.build",
    "simulation.run_s": "simulation.run",
    "vectorized.gather_s": "vectorized.gather",
    "vectorized.sample_s": "vectorized.sample",
    "vectorized.consume_acks_s": "vectorized.consume_acks",
    "vectorized.per_entry_s": "vectorized.per_entry",
    "analysis.verdict_s": "analysis.verdict",
    "analysis.quiescence_s": "analysis.quiescence",
    "analysis.anonymity_s": "analysis.anonymity",
    "batch.pickle_s": "batch.pickle",
    "hashing.cell_key_s": "hashing.cell_key",
    "store.put_s": "store.put",
    "store.contains_s": "store.contains",
}

_COMMON_LAYERS = (
    "runner.build_s", "simulation.run_s", "simulation.events",
    "simulation.batched_frac", "analysis.verdict_s", "analysis.quiescence_s",
    "analysis.anonymity_s", "analysis.checked_frac",
    "batch.parallel_efficiency", "network.sends_per_delivery",
    "trace.overhead",
)

#: Layers each workload actually exercises (the rest report 0.0).
LAYERS_BY_WORKLOAD: dict[str, tuple[str, ...]] = {
    "sweep_e2e": _COMMON_LAYERS + ("batch.result_mb", "batch.pickle_s"),
    "campaign_e2e": _COMMON_LAYERS + (
        "batch.result_mb", "batch.pickle_s", "hashing.cell_key_s",
        "store.put_s", "store.blob_kb", "store.contains_s", "store.hits",
        "campaign.resume_cells_per_s",
    ),
    "engine_quiescence": _COMMON_LAYERS + (
        "vectorized.gather_s", "vectorized.sample_s",
        "vectorized.consume_acks_s",
    ),
    "lossy_exponential": _COMMON_LAYERS + (
        "vectorized.sample_s", "vectorized.per_entry_s",
    ),
}

WORKLOADS: tuple[str, ...] = tuple(LAYERS_BY_WORKLOAD)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def environment(root: Path) -> dict[str, object]:
    """What a result set was measured on: cores, interpreter, numpy, commit."""
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout at *root*, or ``"unknown"`` outside a git tree.

    The ceiling stops git from walking above *root* into an enclosing
    repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else "unknown"
