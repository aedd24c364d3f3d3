"""Result shipping: what a pickled run result contains and how it rebuilds.

A :class:`~repro.experiments.runner.ScenarioResult` crosses a process
boundary in every pool-backed runner.  Its wire form must leave the engine
behind, carry the trace and send timeline as flat columns, and rebuild into
a result that is indistinguishable from the original.
"""

from __future__ import annotations

import io
import pickle
from collections import OrderedDict

import numpy as np
import pytest

from repro.campaigns.store import ResultStore
from repro.campaigns.campaign import run_campaign
from repro.experiments.batch import BatchRunner
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario, run_scenarios
from repro.network.loss import LossSpec
from repro.network.network import Network
from repro.registry import engines
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import MetricsCollector
from repro.simulation.tracing import TraceCategory, TraceEvent, TraceRecorder
from repro.simulation.vectorized import VectorizedEngine


def crash_scenario(**overrides) -> Scenario:
    """A small Algorithm 2 run with a crash, so ACKs carry label sets."""
    defaults = dict(
        name="shipping",
        algorithm="algorithm2",
        n_processes=5,
        seed=3,
        crashes={4: 2.0},
        loss=LossSpec.bernoulli(0.3),
        max_time=60.0,
        stop_when_quiescent=True,
        drain_grace_period=2.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class _EngineFreePickler(pickle.Pickler):
    """Pickler that fails on any engine-side object reachable from a result."""

    def reducer_override(self, obj):
        if isinstance(obj, (SimulationEngine, Network, VectorizedEngine)):
            raise AssertionError(f"{type(obj).__name__} reached the wire form")
        return NotImplemented


def engine_free_dumps(value) -> bytes:
    buffer = io.BytesIO()
    _EngineFreePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return buffer.getvalue()


def delivery_logs(result) -> dict:
    """Every process's deliveries, tags included, in delivery order."""
    return {index: list(log)
            for index, log in result.simulation.delivery_logs.items()}


def assert_same_result(original, shipped) -> None:
    """*shipped* matches *original* on everything a run observed."""
    a, b = original.simulation, shipped.simulation
    assert list(b.trace) == list(a.trace)
    assert [type(e.time) for e in b.trace] == [type(e.time) for e in a.trace]
    assert b.trace.digest() == a.trace.digest()
    assert b.trace.header == a.trace.header
    assert delivery_logs(shipped) == delivery_logs(original)
    assert b.metrics.send_timeline == a.metrics.send_timeline
    assert shipped.metrics.as_dict() == original.metrics.as_dict()
    assert shipped.verdict == original.verdict
    assert shipped.quiescence == original.quiescence
    assert shipped.anonymity == original.anonymity
    assert ([p.pending_retransmissions for p in b.processes.values()]
            == [p.pending_retransmissions for p in a.processes.values()])


# --------------------------------------------------------------------------- #
# TraceRecorder
# --------------------------------------------------------------------------- #
class TestTracePickling:
    def recorder(self) -> TraceRecorder:
        trace = TraceRecorder()
        trace.record(0.5, TraceCategory.URB_BROADCAST, 0, content="m")
        trace.record(1.0, TraceCategory.SEND, 0, dst=1, kind="MSG", payload="p")
        trace.record(1.0, TraceCategory.DROP, 0, dst=2, kind="MSG", payload="p")
        trace.record(2.0, TraceCategory.CRASH, 2)
        trace.record(3, TraceCategory.CRASH, 1, forced=True)
        trace.header["seed"] = 7
        return trace

    def test_round_trip_rebuilds_equal_events(self):
        trace = self.recorder()
        shipped = pickle.loads(pickle.dumps(trace))
        assert list(shipped) == list(trace)
        assert [type(e.time) for e in shipped] == [float] * 4 + [int]
        assert [list(e.details) for e in shipped] == \
            [list(e.details) for e in trace]
        assert shipped.header == {"seed": 7}
        assert shipped.channel_active and shipped.protocol_active

    def test_events_are_built_on_first_read_only(self):
        shipped = pickle.loads(pickle.dumps(self.recorder()))
        assert "_events" not in vars(shipped)
        assert len(shipped) == 5
        assert "_events" in vars(shipped)
        assert "_columns" not in vars(shipped)

    def test_repickling_unread_recorder_keeps_columns(self):
        trace = self.recorder()
        once = pickle.loads(pickle.dumps(trace))
        twice = pickle.loads(pickle.dumps(once))
        assert "_events" not in vars(once)
        assert list(twice) == list(trace)

    def test_wire_form_is_columnar(self):
        state = self.recorder().__getstate__()
        assert "_events" not in state
        times, codes, processes, schemas, schema_ids, values = state["_columns"]
        assert isinstance(codes, bytes) and len(codes) == 5
        assert schemas == (("content",), ("dst", "kind", "payload"), (),
                           ("forced",))
        assert bytes(schema_ids) == bytes([0, 1, 1, 2, 3])
        assert list(processes) == [0, 0, 0, 2, 1]
        assert values == ["m", 1, "MSG", "p", 2, "MSG", "p", True]

    def test_numpy_scalars_survive_exactly(self):
        trace = TraceRecorder()
        trace.record(np.float64(1.5), TraceCategory.CRASH, np.int64(2))
        (event,) = pickle.loads(pickle.dumps(trace))
        assert type(event.time) is np.float64
        assert type(event.process) is np.int64

    def test_non_dict_details_ship_as_events(self):
        trace = TraceRecorder()
        trace.extend([TraceEvent(1.0, TraceCategory.CRASH, 0,
                                 OrderedDict(forced=True))])
        assert "_events" in trace.__getstate__()
        (event,) = pickle.loads(pickle.dumps(trace))
        assert type(event.details) is OrderedDict
        assert event.detail("forced") is True

    def test_live_recorder_keeps_recording_after_pickling(self):
        trace = self.recorder()
        pickle.dumps(trace)
        trace.record(4.0, TraceCategory.CRASH, 3)
        assert len(trace) == 6

    def test_unknown_attributes_still_raise(self):
        shipped = pickle.loads(pickle.dumps(self.recorder()))
        with pytest.raises(AttributeError):
            shipped.no_such_attribute


class TestTraceDigest:
    def test_digest_survives_pickle_round_trip_with_label_sets(self):
        trace = run_scenario(crash_scenario(seed=1)).simulation.trace
        shipped = pickle.loads(pickle.dumps(trace))

        def label_orders(recorder):
            return [list(e.detail("payload").labels) for e in recorder
                    if hasattr(e.detail("payload"), "labels")]

        # The round trip rebuilds some ACK's label set in another order ...
        assert label_orders(shipped) != label_orders(trace)
        # ... which the digest does not see.
        assert shipped.digest() == trace.digest()

    def test_digest_ignores_set_iteration_order(self):
        # 0 and 8 share a slot in a small set table: insertion order decides
        # which comes first.
        first, second = frozenset([0, 8]), frozenset([8, 0])
        assert list(first) != list(second)
        a, b = TraceRecorder(), TraceRecorder()
        a.record(1.0, TraceCategory.SEND, 0, labels=first)
        b.record(1.0, TraceCategory.SEND, 0, labels=second)
        assert a.digest() == b.digest()

    def test_digest_still_tells_different_traces_apart(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(1.0, TraceCategory.SEND, 0, labels=frozenset({1, 2}))
        b.record(1.0, TraceCategory.SEND, 0, labels=frozenset({1, 3}))
        assert a.digest() != b.digest()


# --------------------------------------------------------------------------- #
# MetricsCollector
# --------------------------------------------------------------------------- #
class TestMetricsPickling:
    def collector(self) -> MetricsCollector:
        metrics = MetricsCollector()
        metrics.on_send(0.5, 0, "MSG")
        metrics.on_send_many(1.0, 1, "ACK", 3)
        metrics.on_urb_broadcast(0.0, 0, "m")
        metrics.on_urb_deliver(2.0, 1, "m")
        return metrics

    def test_send_timeline_round_trips_lazily(self):
        metrics = self.collector()
        shipped = pickle.loads(pickle.dumps(metrics))
        assert "send_timeline" not in vars(shipped)
        assert shipped.summary() == metrics.summary()
        assert shipped.send_timeline == metrics.send_timeline
        assert shipped.cumulative_sends_at(1.0) == 4

    def test_repickling_unread_collector_keeps_columns(self):
        once = pickle.loads(pickle.dumps(self.collector()))
        twice = pickle.loads(pickle.dumps(once))
        assert twice.send_timeline == self.collector().send_timeline

    def test_live_collector_keeps_recording_after_pickling(self):
        metrics = self.collector()
        pickle.dumps(metrics)
        metrics.on_send(3.0, 2, "MSG")
        assert metrics.send_timeline[-1] == (3.0, 5)


# --------------------------------------------------------------------------- #
# ProcessEnvironment and whole results
# --------------------------------------------------------------------------- #
class TestEngineFreeResults:
    @pytest.mark.parametrize("engine", engines.names())
    @pytest.mark.parametrize("trace_enabled", [True, False])
    def test_result_pickles_without_the_engine(self, engine, trace_enabled):
        result = run_scenario(crash_scenario(engine=engine,
                                             trace_enabled=trace_enabled))
        shipped = pickle.loads(engine_free_dumps(result))
        assert_same_result(result, shipped)

    def test_unpickled_environment_refuses_protocol_calls(self):
        result = run_scenario(crash_scenario())
        shipped = pickle.loads(pickle.dumps(result))
        process = shipped.simulation.processes[0]
        assert process.env.engine_index == 0
        with pytest.raises(RuntimeError, match="unpickled from a finished run"):
            process.env.broadcast("late")
        with pytest.raises(RuntimeError, match="unpickled from a finished run"):
            process.env.atheta()

    def test_live_environment_unaffected_by_pickling(self):
        result = run_scenario(crash_scenario())
        env = result.simulation.processes[0].env
        pickle.dumps(result)
        assert isinstance(env._engine, SimulationEngine)


# --------------------------------------------------------------------------- #
# The contract: every engine's results survive every pool-backed runner
# --------------------------------------------------------------------------- #
class RecordingStore(ResultStore):
    """Keeps every result the campaign hands to the store."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.results: list = []

    def put_many(self, results, *, cell_keys=None):
        results = list(results)
        self.results.extend(results)
        return super().put_many(results, cell_keys=cell_keys)


def contract_scenarios() -> list[Scenario]:
    return [
        crash_scenario(name=f"{engine}-trace{int(trace)}", engine=engine,
                       trace_enabled=trace)
        for engine in engines.names()
        for trace in (True, False)
    ]


def test_every_engine_round_trips_through_batch_runner():
    scenarios = contract_scenarios()
    local = [run_scenario(s) for s in scenarios]
    outcome = BatchRunner(parallel=2).run(scenarios).raise_on_failure()
    assert outcome.parallel == 2
    for original, shipped in zip(local, outcome.results):
        assert_same_result(original, shipped)
        pickle.loads(engine_free_dumps(shipped))


def test_every_engine_round_trips_through_campaign(tmp_path):
    scenarios = contract_scenarios()
    local = {s.name: run_scenario(s) for s in scenarios}
    with RecordingStore(tmp_path / "store") as store:
        report = run_campaign(store, scenarios, name="shipping", parallel=2)
        assert report.complete and report.executed == len(scenarios)
        assert report.parallel == 2
        shipped = {r.scenario.name: r for r in store.results}
    assert shipped.keys() == local.keys()
    for name, original in local.items():
        assert_same_result(original, shipped[name])


def test_untraced_vectorized_cells_run_in_parallel():
    scenarios = [crash_scenario(seed=seed, engine="vectorized",
                                trace_enabled=False) for seed in range(2)]
    results = run_scenarios(scenarios, parallel=2)
    assert [r.scenario.seed for r in results] == [0, 1]
    assert all(r.verdict.all_hold for r in results)
