"""Tests of the benchmark itself: the output check, the metric declarations
and that every workload emits what it declares."""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from cellbench import child, workloads
from cellbench.check import check_view, view_of
from cellbench.metrics import (
    END_TO_END, LAYER_SPANS, LAYERS_BY_WORKLOAD, METRIC_NAME, PER_LAYER,
    WORKLOADS,
)
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# --------------------------------------------------------------------------- #
# output check
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def good_view():
    result = run_scenario(Scenario(
        name="check", algorithm="algorithm2", n_processes=4, seed=3,
        crashes={3: 2.0}, loss=LossSpec.bernoulli(0.2), workload="burst",
        metadata={"burst_size": 3}, stop_when_quiescent=True,
        drain_grace_period=3.0, max_time=150.0,
    ))
    return view_of(result)


def _doctored(view, index, contents):
    deliveries = dict(view.deliveries)
    deliveries[index] = tuple(contents)
    return replace(view, deliveries=deliveries)


def test_check_accepts_a_good_cell(good_view):
    assert len(good_view.expected) == 3
    assert check_view(good_view) == []


def test_check_rejects_a_duplicate_delivery(good_view):
    first = good_view.deliveries[0]
    problems = check_view(_doctored(good_view, 0, first + first[:1]))
    assert any(p.startswith("integrity:") and "twice" in p for p in problems)


def test_check_rejects_a_correct_process_missing_a_delivery(good_view):
    problems = check_view(_doctored(good_view, 1, good_view.deliveries[1][1:]))
    assert any(p.startswith("validity:") for p in problems)
    assert any(p.startswith("agreement:") for p in problems)


def test_check_rejects_a_delivery_never_broadcast(good_view):
    problems = check_view(_doctored(good_view, 2,
                                    good_view.deliveries[2] + ("forged",)))
    assert any(p.startswith("integrity:") and "never broadcast" in p
               for p in problems)
    # Anything one process delivered, every correct process must deliver.
    assert any(p.startswith("agreement:") and "forged" in p for p in problems)


def test_check_ignores_what_a_crashed_process_missed(good_view):
    assert 3 in good_view.crashed
    assert check_view(_doctored(good_view, 3, ())) == []


def test_check_rejects_a_failed_library_verdict_or_no_quiescence(good_view):
    assert check_view(replace(good_view, verdict_holds=False))
    assert check_view(replace(good_view, quiescent=False))
    assert check_view(replace(good_view, quiescent=False,
                              algorithm="algorithm1")) == []


# --------------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------------- #
def test_metric_names_are_well_formed():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_declarations():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _meaning) in PER_LAYER.items()}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert METRIC_NAME.fullmatch(metric["name"])
    assert set(LAYERS_BY_WORKLOAD) == set(WORKLOADS)
    for layers in LAYERS_BY_WORKLOAD.values():
        assert set(layers) <= set(PER_LAYER)


# --------------------------------------------------------------------------- #
# every workload emits every metric it declares (scaled-down inputs)
# --------------------------------------------------------------------------- #
def _small(name: str, scratch: Path):
    if name == "sweep_e2e":
        workload = workloads.SweepE2E()
        workload.n, workload.losses = 5, (0.2,)
    elif name == "campaign_e2e":
        workload = workloads.CampaignE2E(scratch)
        workload.losses, workload.seeds_per_loss = (0.0, 0.3), 3
        workload.resume_passes = 2
    elif name == "engine_quiescence":
        workload = workloads.EngineCell(name, 8, LossSpec.bernoulli(0.05),
                                        DelaySpec.uniform(0.05, 0.5), 8)
    else:
        workload = workloads.EngineCell(
            name, 8, LossSpec.bernoulli(0.3),
            DelaySpec.exponential(mean=0.4, cap=5.0), 4)
    return workload


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_every_declared_metric(name, tmp_path):
    workload = _small(name, tmp_path / "tmp")
    args = argparse.Namespace(workload=name, seed=5, seconds=0.0)

    untraced = child._untraced(workload, workload.inputs(5, 0), args)
    assert set(untraced["metrics"]) == set(END_TO_END) - {"setup_s"}
    for value in untraced["metrics"].values():
        assert math.isfinite(value) and value > 0
    assert all(not r.problems for r in untraced["rounds"])

    traced = child._traced(workload, workload.inputs(5, 0), args, tmp_path)
    assert set(traced["metrics"]) == set(PER_LAYER)
    assert all(math.isfinite(v) for v in traced["metrics"].values())
    assert not traced["guard_problems"]
    declared = LAYERS_BY_WORKLOAD[name]
    for metric, span in LAYER_SPANS.items():
        if metric in declared:
            assert traced["metrics"][metric] > 0, metric
        else:
            assert traced["metrics"][metric] == 0, metric
    table = traced["extra"]["self_time_table"]
    assert table["rows_plus_unattributed_s"] == pytest.approx(
        table["traced_wall_s"], rel=1e-9)
    assert (tmp_path / "spans" / f"{name}-seed5.jsonl").is_file()
