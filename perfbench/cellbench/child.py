"""One workload in a fresh process: set up, run the rounds, report as JSON.

Started by ``perfbench/run.py`` as ``python3 -m cellbench.child`` with the
checkout's ``src`` and ``perfbench`` directories on ``PYTHONPATH``.  The
last line of standard output is one JSON object for the driver.

* ``--setup-only``: imports, round-0 input generation and (campaign) temp
  store creation, then exit; reports ``setup_s`` only.
* ``--trace 0``: rounds of fresh inputs for about ``--seconds``; reports
  the end-to-end metrics.
* ``--trace 1``: round 0 untraced through the real entry point, again
  in-process (the overhead reference), then in-process with layer spans;
  reports the per-layer metrics and writes the spans file.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _reset_own_peak() -> None:
    """Start a new peak-RSS window for this process at its current RSS.

    Linux 4.0 and later only; elsewhere the window stays the process's
    whole life.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass


def _own_peak_mb() -> float:
    """Peak RSS of this process since the last window reset, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_peak_mb() -> float:
    """Largest peak RSS of this process's waited-for children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine so far; ``(0, 0)`` where
    ``/proc/stat`` is unavailable.  Steal is time a hypervisor ran someone
    else on this machine's virtual CPUs: the main source of run-to-run
    noise on a shared host, so each run reports its share."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _check_guard(path: Path, counts: dict, problems: list[str]) -> None:
    """Compare exact counts with an earlier run on the same inputs."""
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != counts:
            problems.append(f"determinism guard: counts {counts} differ from "
                            f"an earlier run on the same inputs {previous}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))


def _untraced(workload, inputs0, args) -> dict:
    rounds = []
    own_peaks = []
    inputs = inputs0
    steal0, total0 = _cpu_ticks()
    started = time.perf_counter()
    while True:
        # Garbage from the previous round (result graphs with cycles) would
        # otherwise be collected, and inherited by forked workers, inside
        # this round's timed region.
        gc.collect()
        _reset_own_peak()
        rounds.append(workload.run(inputs, parallel=workload.workers))
        own_peaks.append(_own_peak_mb())
        # Start another round only if it should end within half a round of
        # the target, so a run lasts about --seconds however long rounds
        # are.  The clock counts the checks and collections between the
        # timed regions too, so the run's length does not grow with them.
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
            break
        inputs = workload.inputs(args.seed, len(rounds))
    steal1, total1 = _cpu_ticks()
    wall = sum(r.wall for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    passed = sum(r.passed for r in rounds)
    # Rates are over the whole run: contention on a shared host comes and goes
    # within seconds, so a run-long total averages it out better than a
    # median of a few rounds does.  The process's own peak RSS is a median
    # over rounds, so that one backlog of results in flight moves the round
    # it falls in, not the whole run's figure.
    metrics = {
        "cells_per_s": passed / wall,
        "events_per_s": sum(r.events for r in rounds) / wall,
        "peak_rss_mb": max(statistics.median(own_peaks), _children_peak_mb()),
        "passed_cell_frac": passed / attempted if attempted else 0.0,
    }
    extra = {
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "round_events": [r.events for r in rounds],
        "round_peak_rss_mb": own_peaks,
        "children_peak_rss_mb": _children_peak_mb(),
        "failed_cell_frac": (attempted - passed) / attempted if attempted else 1.0,
        "steal_frac": ((steal1 - steal0) / (total1 - total0)
                       if total1 > total0 else 0.0),
    }
    resume = [r.resume_cells / sum(r.resume_walls) for r in rounds
              if r.resume_walls]
    if resume:
        extra["resume_cells_per_s"] = statistics.median(resume)
    return {"metrics": metrics, "extra": extra, "rounds": rounds}


def _traced(workload, inputs0, args, out_dir: Path) -> dict:
    from cellbench.metrics import LAYER_SPANS, PER_LAYER
    from cellbench.spans import Tracer, install_layer_spans

    gc.collect()
    pool_round = workload.run(inputs0, parallel=workload.workers)
    if workload.workers > 1:
        inline_inputs = workload.inputs(args.seed, 0)
        gc.collect()
        inline_round = workload.run(inline_inputs, parallel=1)
    else:
        inline_round = pool_round
    traced_inputs = workload.inputs(args.seed, 0)
    gc.collect()
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        with tracer.span("traced_round") as root:
            traced_round = workload.run(traced_inputs, parallel=1, tracer=tracer)
    finally:
        tracer.uninstall()

    cells = max(traced_round.attempted, 1)
    self_times = tracer.self_times()
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = self_times.get(span, (0.0, 0))[0] / cells
    a = pool_round
    metrics["simulation.events"] = float(a.events)
    metrics["simulation.batched_frac"] = (
        sum(mode == "batched" for mode in tracer.consume_modes) / cells)
    metrics["analysis.checked_frac"] = a.checked_cells / max(a.attempted, 1)
    if traced_round.pickled_cells:
        metrics["batch.result_mb"] = (traced_round.pickled_bytes
                                      / traced_round.pickled_cells / 1e6)
    metrics["batch.parallel_efficiency"] = (
        a.cell_wall_sum / (a.wall * a.workers))
    metrics["store.blob_kb"] = a.blob_bytes / max(a.attempted, 1) / 1000.0
    metrics["store.hits"] = float(a.store_hits)
    if a.resume_walls:
        metrics["campaign.resume_cells_per_s"] = statistics.median(
            a.resume_cells / len(a.resume_walls) / w for w in a.resume_walls)
    metrics["network.sends_per_delivery"] = a.sends / max(a.deliveries, 1)

    # Overhead: the traced timed region minus the benchmark's own probes
    # inside it, against the same round untraced in-process.
    start, end = traced_round.window_ns
    own_inside = sum(
        tracer.duration_s(i) for i, name in enumerate(tracer.names)
        if name in ("bench.check", "batch.pickle")
        and start <= tracer.starts[i] <= end)
    metrics["trace.overhead"] = (
        (traced_round.wall - own_inside) / inline_round.wall - 1.0)

    traced_wall = tracer.duration_s(root)
    rows = sorted(((name, s, calls) for name, (s, calls) in self_times.items()
                   if name != "traced_round"), key=lambda row: -row[1])
    unattributed = self_times["traced_round"][0]
    spans_path = out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    table = {
        "traced_wall_s": traced_wall,
        "untraced_inline_wall_s": inline_round.wall,
        "overhead": metrics["trace.overhead"],
        "rows": [{"layer": n, "self_s": s, "calls": c,
                  "share": s / traced_wall} for n, s, c in rows],
        "unattributed_s": unattributed,
        "rows_plus_unattributed_s": sum(s for _n, s, _c in rows) + unattributed,
        "missing_targets": tracer.missing,
        "spans_file": str(spans_path),
        "spans": len(tracer.names),
    }
    rounds = [pool_round, traced_round]
    if inline_round is not pool_round:
        rounds.insert(1, inline_round)
    guard_problems = []
    reference = pool_round.guard_counts()
    for other in rounds[1:]:
        if other.guard_counts() != reference:
            guard_problems.append(
                f"determinism guard: counts {other.guard_counts()} differ "
                f"from {reference} on the same inputs")
    return {"metrics": metrics, "extra": {"self_time_table": table},
            "rounds": rounds, "guard_problems": guard_problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True,
                        help="checkout root (outputs go to <root>/.perfbench_out)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from cellbench import workloads

    out_dir = Path(args.root) / ".perfbench_out"
    workload = workloads.make(args.workload, out_dir / "tmp")
    inputs0 = workload.inputs(args.seed, 0)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        workload.discard(inputs0)
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    fingerprint = workload.fingerprint(inputs0)
    if args.trace:
        outcome = _traced(workload, inputs0, args, out_dir)
    else:
        outcome = _untraced(workload, inputs0, args)
    rounds = outcome["rounds"]
    problems = [p for r in rounds for p in r.problems]
    problems.extend(outcome.get("guard_problems", ()))
    guard_path = (out_dir / "guard"
                  / f"{args.workload}-seed{args.seed}-{fingerprint}.json")
    _check_guard(guard_path, rounds[0].guard_counts(), problems)
    attempted = sum(r.attempted for r in rounds)
    failed = attempted - sum(r.passed for r in rounds)
    sys.stdout.write(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": outcome["metrics"],
        "extra": outcome["extra"],
        "guard": rounds[0].guard_counts(),
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
