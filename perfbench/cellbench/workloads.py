"""The benchmark's workloads: input generation from a seed, and one round.

A *round* is one batch of cells pushed through a public entry point of the
library (``ScenarioSuite.run``, ``run_campaign`` or ``run_scenario``).  Its
timed region is that call alone.  The output check runs after it; only the
campaign's per-cell record, a copy of a few small fields taken where the
store receives each result, falls inside it.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.campaigns.campaign import run_campaign
from repro.campaigns.store import ResultStore
from repro.experiments import runner
from repro.experiments.batch import ScenarioSuite
from repro.experiments.common import crash_last
from repro.experiments.config import Scenario
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec

from .check import CellView, check_view, view_of
from .spans import Tracer

#: Pool size of the sweep and campaign entry points.
WORKERS = 2


@dataclass(frozen=True)
class CellRecord:
    """What the benchmark keeps of one finished cell."""

    name: str
    view: CellView
    events: int
    sends: int
    deliveries: int
    all_checked: bool
    wall_time: float


def record_of(result: Any) -> CellRecord:
    """Reduce a ``ScenarioResult`` to the record the round accounts."""
    summary = result.metrics
    return CellRecord(
        name=result.scenario.name,
        view=view_of(result),
        events=result.simulation.event_stats.total,
        sends=summary.total_sends,
        deliveries=summary.deliveries,
        all_checked=all(v.checked > 0 for v in result.verdict.verdicts()),
        wall_time=result.wall_time or 0.0,
    )


@dataclass
class Round:
    """What one pass over a round's cells measured."""

    workers: int
    #: Seconds inside the entry-point call (the timed region).
    wall: float = 0.0
    attempted: int = 0
    passed: int = 0
    problems: list[str] = field(default_factory=list)
    events: int = 0
    sends: int = 0
    deliveries: int = 0
    checked_cells: int = 0
    cell_wall_sum: float = 0.0
    store_hits: int = 0
    blob_bytes: int = 0
    resume_cells: int = 0
    resume_walls: list[float] = field(default_factory=list)
    pickled_cells: int = 0
    pickled_bytes: int = 0
    #: ``(start_ns, end_ns)`` of the timed region, for span attribution.
    window_ns: tuple[int, int] = (0, 0)

    def add(self, record: CellRecord) -> None:
        """Account one finished cell and check its output."""
        self.events += record.events
        self.sends += record.sends
        self.deliveries += record.deliveries
        self.cell_wall_sum += record.wall_time
        self.checked_cells += record.all_checked
        problems = check_view(record.view)
        if problems:
            self.problems.extend(f"{record.name}: {p}" for p in problems)
        else:
            self.passed += 1

    def guard_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        return {"events": self.events, "sends": self.sends,
                "deliveries": self.deliveries, "store_hits": self.store_hits}


def _timed(call, *args, **kwargs) -> tuple[Any, float, tuple[int, int]]:
    start = time.perf_counter_ns()
    value = call(*args, **kwargs)
    end = time.perf_counter_ns()
    return value, (end - start) / 1e9, (start, end)


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _fingerprint(scenarios: list[Scenario]) -> str:
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(repr(scenario).encode("utf-8"))
    return digest.hexdigest()[:16]


def _pickle_probe(result: Any, round_: Round, tracer: Tracer) -> None:
    """Time shipping one result the way the process pool does."""
    with tracer.span("batch.pickle"):
        data = pickle.dumps(result)
        pickle.loads(data)
    round_.pickled_cells += 1
    round_.pickled_bytes += len(data)


# --------------------------------------------------------------------------- #
# sweep_e2e
# --------------------------------------------------------------------------- #
class SweepE2E:
    """Algorithm 2 burst cells over a loss grid, half with a minority crash,
    at default ``Scenario`` settings, through ``ScenarioSuite.run``."""

    name = "sweep_e2e"
    workers = WORKERS
    n = 12
    losses = (0.1, 0.2, 0.3)

    def inputs(self, seed: int, round_index: int) -> ScenarioSuite:
        rng = _rng(self.name, seed, round_index)
        suite = ScenarioSuite(f"{self.name}-{seed}-{round_index}")
        for loss in self.losses:
            for n_crashes in (0, (self.n - 1) // 2):
                cell_seed = rng.randrange(2**31)
                suite.add(Scenario(
                    name=f"{self.name}-p{loss}-c{n_crashes}-s{cell_seed}",
                    algorithm="algorithm2",
                    n_processes=self.n,
                    seed=cell_seed,
                    crashes=crash_last(self.n, n_crashes, time=2.0),
                    loss=LossSpec.bernoulli(loss),
                    workload="burst",
                    metadata={"burst_size": self.n},
                    max_time=150.0,
                    stop_when_quiescent=True,
                    drain_grace_period=3.0,
                ), group=f"loss={loss},crashes={n_crashes}")
        return suite

    def fingerprint(self, suite: ScenarioSuite) -> str:
        return _fingerprint([item.scenario for item in suite.build()])

    def discard(self, suite: ScenarioSuite) -> None:
        pass

    def run(self, suite: ScenarioSuite, *, parallel: int,
            tracer: Optional[Tracer] = None) -> Round:
        outcome, wall, window = _timed(suite.run, parallel=parallel)
        round_ = Round(workers=outcome.parallel, wall=wall, window_ns=window,
                       attempted=len(outcome.items))
        round_.problems.extend(f.describe() for f in outcome.failures)
        for result in outcome.results:
            if tracer is None:
                round_.add(record_of(result))
                continue
            with tracer.span("bench.check"):
                round_.add(record_of(result))
            _pickle_probe(result, round_, tracer)
        return round_


# --------------------------------------------------------------------------- #
# campaign_e2e
# --------------------------------------------------------------------------- #
class RecordingStore(ResultStore):
    """A result store that keeps a checkable record of every result put.

    The campaign runner hands finished results straight to the store, so
    this is where the benchmark sees each campaign cell's output.
    """

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.records: list[CellRecord] = []
        self.tracer: Optional[Tracer] = None
        self.round: Optional[Round] = None

    def put_many(self, results, *, cell_keys=None):
        results = list(results)
        tracer = self.tracer
        for result in results:
            if tracer is None:
                self.records.append(record_of(result))
                continue
            with tracer.span("bench.check"):
                self.records.append(record_of(result))
            _pickle_probe(result, self.round, tracer)
        return super().put_many(results, cell_keys=cell_keys)


@dataclass
class CampaignInputs:
    suite: ScenarioSuite
    root: Path
    store: RecordingStore


class CampaignE2E:
    """CLI-default campaign cells (n=5, one broadcast, loss grid x seeds)
    into a fresh store, then ``resume=True`` passes over the same suite."""

    name = "campaign_e2e"
    workers = WORKERS
    n = 5
    losses = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    seeds_per_loss = 40
    resume_passes = 10

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def inputs(self, seed: int, round_index: int) -> CampaignInputs:
        rng = _rng(self.name, seed, round_index)
        base = Scenario(
            name=self.name,
            algorithm="algorithm2",
            n_processes=self.n,
            seed=rng.randrange(2**31),
            max_time=150.0,
            stop_when_quiescent=True,
            drain_grace_period=3.0,
        )
        suite = (
            ScenarioSuite(f"{self.name}-{seed}-{round_index}")
            .add_sweep(base, "loss",
                       [LossSpec.bernoulli(p) if p > 0 else LossSpec.none()
                        for p in self.losses],
                       groups=[f"loss={p}" for p in self.losses])
            .with_seeds(self.seeds_per_loss)
        )
        self.scratch.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        return CampaignInputs(suite=suite, root=root, store=RecordingStore(root))

    def fingerprint(self, inputs: CampaignInputs) -> str:
        return _fingerprint([item.scenario for item in inputs.suite.build()])

    def discard(self, inputs: CampaignInputs) -> None:
        inputs.store.close()
        shutil.rmtree(inputs.root, ignore_errors=True)

    def run(self, inputs: CampaignInputs, *, parallel: int,
            tracer: Optional[Tracer] = None) -> Round:
        store, suite = inputs.store, inputs.suite
        round_ = Round(workers=min(parallel, len(suite)))
        store.tracer, store.round = tracer, round_
        try:
            report, round_.wall, round_.window_ns = _timed(
                run_campaign, store, suite, name=self.name, parallel=parallel)
            round_.attempted = report.total
            round_.problems.extend(f.describe() for f in report.failures)
            if report.executed != report.total:
                round_.problems.append(
                    f"cold pass executed {report.executed} of {report.total}")
            for _ in range(self.resume_passes):
                gc.collect()
                again, wall, _window = _timed(
                    run_campaign, store, suite, name=self.name,
                    parallel=parallel, resume=True)
                round_.resume_walls.append(wall)
                round_.resume_cells += again.cached
                if again.executed != 0 or again.cached != report.total:
                    round_.problems.append(
                        f"resume pass executed {again.executed}, answered "
                        f"{again.cached} of {report.total} from the store")
            round_.store_hits = store.hits
            round_.blob_bytes = sum(len(store.blob_bytes(key))
                                    for key in set(report.cell_keys))
            for record in store.records:
                round_.add(record)
        finally:
            self.discard(inputs)
        return round_


# --------------------------------------------------------------------------- #
# engine_quiescence / lossy_exponential
# --------------------------------------------------------------------------- #
class EngineCell:
    """One large Algorithm 2 burst cell on the vectorized engine, trace off,
    through ``run_scenario`` in-process."""

    workers = 1

    def __init__(self, name: str, n: int, loss: LossSpec, delay: DelaySpec,
                 burst_size: int) -> None:
        self.name = name
        self.n = n
        self.loss = loss
        self.delay = delay
        self.burst_size = burst_size

    def inputs(self, seed: int, round_index: int) -> Scenario:
        cell_seed = _rng(self.name, seed, round_index).randrange(2**31)
        return Scenario(
            name=f"{self.name}-s{cell_seed}",
            algorithm="algorithm2",
            n_processes=self.n,
            seed=cell_seed,
            loss=self.loss,
            delay=self.delay,
            workload="burst",
            metadata={"burst_size": self.burst_size},
            stop_when_quiescent=True,
            drain_grace_period=2.0,
            max_time=400.0,
            trace_enabled=False,
            engine="vectorized",
        )

    def fingerprint(self, scenario: Scenario) -> str:
        return _fingerprint([scenario])

    def discard(self, scenario: Scenario) -> None:
        pass

    def run(self, scenario: Scenario, *, parallel: int,
            tracer: Optional[Tracer] = None) -> Round:
        # Looked up on the module so a traced round sees the wrapped call.
        result, wall, window = _timed(runner.run_scenario, scenario)
        round_ = Round(workers=1, wall=wall, window_ns=window, attempted=1)
        if tracer is None:
            round_.add(record_of(result))
        else:
            # Single cells never cross a process boundary, so there is no
            # result shipping to probe here.
            with tracer.span("bench.check"):
                round_.add(record_of(result))
        return round_


def make(name: str, scratch: Path):
    """The workload called *name*."""
    if name == "sweep_e2e":
        return SweepE2E()
    if name == "campaign_e2e":
        return CampaignE2E(scratch)
    if name == "engine_quiescence":
        # The harness's quiescence_vectorized load at n=24.
        return EngineCell(name, 24, LossSpec.bernoulli(0.05),
                          DelaySpec.uniform(0.05, 0.5), burst_size=24)
    if name == "lossy_exponential":
        # The harness's lossy_channels load on the vectorized engine.
        return EngineCell(name, 24, LossSpec.bernoulli(0.3),
                          DelaySpec.exponential(mean=0.4, cap=5.0),
                          burst_size=12)
    raise KeyError(name)
