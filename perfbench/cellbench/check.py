"""Per-cell output check, independent of the library's own verdict.

The three URB properties are recomputed from what each process delivered,
what the workload broadcast and which processes the scenario crashed:

* validity — every correct process delivers every broadcast content;
* uniform agreement — a content delivered by anyone is delivered by every
  correct process;
* uniform integrity — a process delivers a content at most once, and only
  a content that was broadcast.

On top of that the library's verdict and anonymity audit must pass, and an
Algorithm 2 cell must have stopped quiescent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence


@dataclass(frozen=True)
class CellView:
    """The parts of one finished cell the check reads (plain data)."""

    n_processes: int
    crashed: frozenset[int]
    expected: tuple[Any, ...]
    deliveries: Mapping[int, Sequence[Any]]
    algorithm: str
    verdict_holds: bool
    anonymity_passed: bool
    quiescent: bool


def view_of(result: Any) -> CellView:
    """Extract a :class:`CellView` from a ``ScenarioResult``.

    The crash set comes from the scenario the benchmark generated, not from
    the engine's own crash schedule.
    """
    scenario = result.scenario
    simulation = result.simulation
    return CellView(
        n_processes=scenario.n_processes,
        crashed=frozenset(int(i) for i in dict(scenario.crashes)),
        expected=tuple(simulation.expected_contents),
        deliveries={int(i): tuple(log.contents())
                    for i, log in simulation.delivery_logs.items()},
        algorithm=scenario.algorithm,
        verdict_holds=bool(result.verdict.all_hold),
        anonymity_passed=bool(result.anonymity.passed),
        quiescent=bool(result.quiescence.quiescent),
    )


def check_deliveries(view: CellView) -> list[str]:
    """Violations of validity, uniform agreement and uniform integrity."""
    problems: list[str] = []
    broadcast = set(view.expected)
    delivered_by_anyone: set[Any] = set()
    for index in range(view.n_processes):
        seen: set[Any] = set()
        for content in view.deliveries.get(index, ()):
            if content in seen:
                problems.append(f"integrity: process {index} delivered "
                                f"{content!r} twice")
            if content not in broadcast:
                problems.append(f"integrity: process {index} delivered "
                                f"{content!r}, which was never broadcast")
            seen.add(content)
        delivered_by_anyone |= seen
    for index in range(view.n_processes):
        if index in view.crashed:
            continue
        got = set(view.deliveries.get(index, ()))
        for content in view.expected:
            if content not in got:
                problems.append(f"validity: correct process {index} never "
                                f"delivered {content!r}")
        for content in sorted(delivered_by_anyone - got, key=repr):
            problems.append(f"agreement: correct process {index} never "
                            f"delivered {content!r}, which another "
                            "process delivered")
    return problems


def check_view(view: CellView) -> list[str]:
    """Every problem with one cell; an empty list means the cell passed."""
    problems = check_deliveries(view)
    if not view.verdict_holds:
        problems.append("library verdict: a URB property is violated")
    if not view.anonymity_passed:
        problems.append("library verdict: the anonymity audit failed")
    if view.algorithm == "algorithm2" and not view.quiescent:
        problems.append("quiescence: an Algorithm 2 cell did not stop quiescent")
    return problems
