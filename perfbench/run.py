"""End-to-end cell benchmark of the URB simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_e2e --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh process (``perfbench/cellbench/child.py``)
started by this driver, with at most two pool workers below it.  With
``--trace 0`` the driver first starts a few set-up-only processes and
reports the median set-up time; the measured process then reports the
end-to-end metrics.  With ``--trace 1`` it reports the per-layer metrics
from a traced in-process round, prints the self-time table and writes the
spans to ``.perfbench_out/spans/``.  Every cell's output is checked; any
failed check makes the exit status non-zero.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from cellbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, WORKLOADS, environment,
)

#: Set-up-only processes started before the measured one (``--trace 0``).
SETUP_PROBES = 3
#: Wall-clock budget of one workload, set-up processes included, in seconds.
WORKLOAD_BUDGET = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], timeout: float) -> dict:
    """Run one workload process and parse its last output line.

    The process gets its own session so that a timeout kills its pool
    workers too.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "cellbench.child", "--root", str(ROOT),
               *args]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"workload process timed out after {timeout:.0f}s")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise BenchError(f"workload process exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload; returns the child's report plus set-up samples."""
    deadline = time.monotonic() + WORKLOAD_BUDGET
    common = ["--workload", name, "--seed", str(seed)]
    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_child(common + ["--setup-only"],
                                 deadline - time.monotonic())["setup_s"])
    report = _child(common + ["--seconds", str(seconds),
                              "--trace", str(trace)],
                    deadline - time.monotonic())
    setups.append(report["setup_s"])
    if not trace:
        report["metrics"]["setup_s"] = statistics.median(setups)
    report["setup_samples_s"] = setups
    return report


def _units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run with this ``--trace`` reports."""
    if trace:
        return {name: unit for name, (unit, _meaning) in PER_LAYER.items()}
    return END_TO_END


def _print_report(name: str, report: dict, trace: int) -> None:
    out = sys.stdout
    out.write(f"== {name} ({'traced' if trace else 'untraced'}) ==\n")
    units = _units(trace)
    for metric in units:
        out.write(f"  {metric:<30} {report['metrics'][metric]:>14.6g} "
                  f"{units[metric]}\n")
    extra = report["extra"]
    if not trace:
        out.write(f"  {'failed_cell_frac':<30} "
                  f"{extra['failed_cell_frac']:>14.6g} ratio\n")
        if "resume_cells_per_s" in extra:
            out.write(f"  {'resume_cells_per_s':<30} "
                      f"{extra['resume_cells_per_s']:>14.6g} cells/s\n")
        out.write(f"  rounds {extra['rounds']}, CPU steal "
                  f"{extra['steal_frac']:.1%}, set-up samples "
                  f"{', '.join(f'{s:.3f}' for s in report['setup_samples_s'])} s\n")
    else:
        table = extra["self_time_table"]
        out.write(f"  self time by layer (traced wall "
                  f"{table['traced_wall_s']:.3f} s, untraced in-process "
                  f"{table['untraced_inline_wall_s']:.3f} s, overhead "
                  f"{table['overhead']:+.1%})\n")
        for row in table["rows"]:
            out.write(f"    {row['layer']:<26} {row['self_s']:>10.4f} s "
                      f"{row['share']:>7.1%} {row['calls']:>9} calls\n")
        out.write(f"    {'unattributed':<26} {table['unattributed_s']:>10.4f} s "
                  f"{table['unattributed_s'] / table['traced_wall_s']:>7.1%}\n")
        out.write(f"    {'total':<26} "
                  f"{table['rows_plus_unattributed_s']:>10.4f} s\n")
        if table["missing_targets"]:
            out.write("    absent from this build: "
                      + ", ".join(table["missing_targets"]) + "\n")
        out.write(f"  spans: {table['spans']} in {table['spans_file']}\n")
    out.write(f"  cells attempted {report['attempted']}, failed "
              f"{report['failed']}; exact counts {report['guard']}\n")
    for problem in report["problems"][:20]:
        out.write(f"  FAILED {problem}\n")


def _save(name: str, seed: int, trace: int, report: dict, env: dict) -> None:
    path = ROOT / ".perfbench_out" / "results" / \
        f"{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "trace": trace, "environment": env,
                                **report}, indent=2))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library source under {ROOT / 'src'}\n")
        return 2
    env = environment(ROOT)
    sys.stdout.write("environment: " + json.dumps(env) + "\n")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = _units(args.trace)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, json.JSONDecodeError, KeyError) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        _print_report(name, report, args.trace)
        _save(name, args.seed, args.trace, report, env)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            summary["metrics"][prefix + metric] = {
                "value": report["metrics"][metric], "unit": unit}
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        if report["failed"] or report["problems"]:
            summary["correct"] = False
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
