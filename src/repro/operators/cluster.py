"""The cluster / categorize operator (paper Section 3.2, citing Jain et al.).

Clustering a corpus with an LLM in one prompt suffers the same drops and
hallucinations as whole-list sorting.  The two-phase scheme from the
crowdsourcing literature first derives a clustering *scheme* from a small
sample, then assigns the remaining items to those clusters one at a time.

* ``single_prompt`` — group every item in one prompt.
* ``two_phase`` — group a seed sample in one prompt, pick one representative
  per discovered group, then assign every remaining item by comparing it
  against the representatives with unit tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import DatasetError, ResponseParseError
from repro.llm.prompts import DUPLICATE_CHECK, GROUP_RECORDS
from repro.operators.base import BaseOperator, OperatorResult


@dataclass
class ClusterResult(OperatorResult):
    """Output of a clustering run: groups of item indices."""

    clusters: list[list[int]] = field(default_factory=list)

    def labels(self) -> dict[int, int]:
        """Item index → cluster index mapping."""
        return {
            item: cluster_index
            for cluster_index, cluster in enumerate(self.clusters)
            for item in cluster
        }


class ClusterOperator(BaseOperator):
    """Group items that refer to the same underlying entity or category."""

    operation = "cluster"

    def _register_strategies(self) -> None:
        self.register_strategy("single_prompt", self._run_single_prompt)
        self.register_strategy("two_phase", self._run_two_phase)

    def run(self, items: Sequence[str], *, strategy: str = "two_phase", **kwargs) -> ClusterResult:
        """Cluster ``items`` with the named strategy."""
        item_list = [str(item) for item in items]
        if len(item_list) != len(set(item_list)):
            raise DatasetError("items must be unique strings")
        return self._run(strategy, item_list, **kwargs)

    def _group_prompt(self, items: list[str]) -> list[list[int]]:
        response = self._complete(GROUP_RECORDS.render(items))
        try:
            raw_groups = GROUP_RECORDS.read(response.text)
        except ResponseParseError:
            return [[index] for index in range(len(items))]
        covered: set[int] = set()
        groups: list[list[int]] = []
        for group in raw_groups:
            valid = [index for index in group if 0 <= index < len(items) and index not in covered]
            if valid:
                groups.append(valid)
                covered.update(valid)
        groups.extend([[index] for index in range(len(items)) if index not in covered])
        return groups

    def _run_single_prompt(self, items: list[str]) -> ClusterResult:
        return ClusterResult(strategy="single_prompt", clusters=self._group_prompt(items))

    def _run_two_phase(self, items: list[str], *, seed_size: int = 12) -> ClusterResult:
        """Phase 1: group a seed sample; phase 2: assign the rest to those groups."""
        if seed_size < 2:
            raise DatasetError("seed_size must be at least 2")
        seed = items[: min(seed_size, len(items))]
        remaining = items[len(seed) :]
        seed_groups_local = self._group_prompt(seed)
        # Translate local seed indices into global item indices and pick the
        # first member of each group as its representative.
        clusters: list[list[int]] = [
            [items.index(seed[local]) for local in group] for group in seed_groups_local
        ]
        representatives = [seed[group[0]] for group in seed_groups_local]

        for item in remaining:
            item_index = items.index(item)
            assigned = False
            for cluster_index, representative in enumerate(representatives):
                response = self._complete(DUPLICATE_CHECK.render([item, representative]))
                try:
                    same = DUPLICATE_CHECK.read(response.text)
                except ResponseParseError:
                    same = False
                if same:
                    clusters[cluster_index].append(item_index)
                    assigned = True
                    break
            if not assigned:
                clusters.append([item_index])
                representatives.append(item)
        return ClusterResult(strategy="two_phase", clusters=clusters)
