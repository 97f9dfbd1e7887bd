"""``topological_waves`` against the level scan it replaced.

The oracle below is the former implementation, kept verbatim in behaviour:
each wave rescans every remaining step.  The property holds the linear-time
decomposition to it on random graphs, waves and ``SpecError`` texts alike.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import topological_waves
from repro.exceptions import SpecError


def level_scan(dependencies):
    """The former ``topological_waves``: validate, then one scan per wave."""
    names = set(dependencies)
    for name, deps in dependencies.items():
        unknown = sorted(set(deps) - names)
        if unknown:
            raise SpecError(
                f"step {name!r} depends on unknown step(s): {', '.join(repr(d) for d in unknown)}"
            )
    done: set[str] = set()
    remaining = list(dependencies)
    waves: list[list[str]] = []
    while remaining:
        ready = [name for name in remaining if all(dep in done for dep in dependencies[name])]
        if not ready:
            cycle = ", ".join(repr(name) for name in remaining)
            raise SpecError(f"dependency cycle among steps: {cycle}")
        waves.append(ready)
        done.update(ready)
        remaining = [name for name in remaining if name not in done]
    return waves


def outcome(decompose, dependencies):
    try:
        return ("waves", decompose(dependencies))
    except SpecError as exc:
        return ("error", str(exc))


@st.composite
def graphs(draw, acyclic: bool):
    """Steps in a shuffled insertion order; edges may repeat, cycle or name no step."""
    count = draw(st.integers(min_value=0, max_value=12))
    names = [f"s{index}" for index in range(count)]
    dependencies = {}
    for index, name in enumerate(names):
        pool = names[:index] if acyclic else names + ["ghost", "phantom"]
        dependencies[name] = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    order = draw(st.permutations(names))
    return {name: dependencies[name] for name in order}


class TestWavesMatchTheLevelScan:
    @settings(max_examples=300)
    @given(graphs(acyclic=True))
    def test_dags(self, dependencies):
        assert outcome(topological_waves, dependencies) == outcome(level_scan, dependencies)
        assert outcome(level_scan, dependencies)[0] == "waves"

    @settings(max_examples=300)
    @given(graphs(acyclic=False))
    def test_any_graph_gives_the_same_waves_or_the_same_error(self, dependencies):
        assert outcome(topological_waves, dependencies) == outcome(level_scan, dependencies)

    def test_errors_read_as_before(self):
        cycle = {"a": ["c"], "b": [], "c": ["a", "b"], "d": ["c"]}
        assert outcome(topological_waves, cycle) == (
            "error",
            "dependency cycle among steps: 'a', 'c', 'd'",
        )
        unknown = {"a": [], "b": ["zz", "a", "yy", "zz"], "c": ["b", "c"]}
        assert outcome(topological_waves, unknown) == (
            "error",
            "step 'b' depends on unknown step(s): 'yy', 'zz'",
        )


class CountedDeps(list):
    """A dependency list that counts how often it is read."""

    reads = 0

    def __iter__(self):
        CountedDeps.reads += 1
        return super().__iter__()


def test_each_step_s_dependencies_are_read_once():
    # A leaf-last chain: the level scan re-read every remaining list per wave.
    n = 300
    dependencies = {f"s{i}": CountedDeps([f"s{i - 1}"] if i else []) for i in range(n - 1, -1, -1)}
    CountedDeps.reads = 0
    waves = topological_waves(dependencies)
    assert waves == [[f"s{i}"] for i in range(n)]
    assert CountedDeps.reads == n
