"""Dependency-graph utilities shared by the pipeline spec and scheduler.

A pipeline is a set of named steps plus ``depends_on`` edges.  This module
holds the pure graph algorithms both layers need: validation (duplicate
names, unknown dependencies, cycles), the wave decomposition the scheduler
executes (Kahn's algorithm by levels), and the transitive-dependency closure
that determines which upstream results a step is allowed to read.

Everything here is deterministic: waves and closures follow the insertion
order of the input mapping, never thread timing, so two runs of the same
pipeline — at any concurrency — see identical step orderings.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import SpecError


def topological_waves(dependencies: Mapping[str, Sequence[str]]) -> list[list[str]]:
    """Decompose a dependency graph into executable waves.

    Wave ``k`` contains every step whose dependencies all completed in waves
    ``< k``; steps within one wave are mutually independent and may run
    concurrently.  Within a wave, steps keep the mapping's insertion order.
    Each edge is followed once.

    Raises:
        SpecError: on unknown dependencies or dependency cycles.
    """
    pending: dict[str, int] = {}  # step -> its dependencies not yet in a wave
    dependents: dict[str, list[str]] = {name: [] for name in dependencies}
    for name, deps in dependencies.items():
        distinct = set(deps)
        unknown = sorted(distinct.difference(dependents))
        if unknown:
            raise SpecError(
                f"step {name!r} depends on unknown step(s): {', '.join(repr(d) for d in unknown)}"
            )
        pending[name] = len(distinct)
        for dep in distinct:
            dependents[dep].append(name)
    # Kahn's algorithm by levels: a step joins the wave after the one that
    # places its last dependency, then the waves are filled in insertion order.
    waves: list[list[str]] = []
    level: dict[str, int] = {}
    frontier = [name for name, count in pending.items() if not count]
    while frontier:
        released = []
        for name in frontier:
            level[name] = len(waves)
            for child in dependents[name]:
                pending[child] -= 1
                if not pending[child]:
                    released.append(child)
        waves.append([])
        frontier = released
    if len(level) < len(pending):
        cycle = ", ".join(repr(name) for name in pending if name not in level)
        raise SpecError(f"dependency cycle among steps: {cycle}")
    for name in pending:
        waves[level[name]].append(name)
    return waves


def transitive_dependencies(
    dependencies: Mapping[str, Sequence[str]]
) -> dict[str, list[str]]:
    """Transitive dependency closure of every step.

    The closure of a step is every step reachable by following ``depends_on``
    edges; it is the set of upstream results the step may read.  Each closure
    is returned in the mapping's insertion order.

    Raises:
        SpecError: on unknown dependencies or dependency cycles.
    """
    reached: dict[str, set[str]] = {}
    for wave in topological_waves(dependencies):  # every dependency's closure comes first
        for name in wave:
            deps = dependencies[name]
            reached[name] = set(deps).union(*(reached[dep] for dep in deps))
    return {name: [dep for dep in dependencies if dep in reached[name]] for name in dependencies}
