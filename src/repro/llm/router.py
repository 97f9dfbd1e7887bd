"""Routing calls across multiple LLMs.

Two routing policies from the paper's agenda:

* :class:`CascadeRouter` — ask the cheapest model first and only escalate to a
  more expensive model when the cheap answer's confidence is below a
  threshold (Section 3.4 "leveraging LLM and non-LLM approaches"; the same
  pattern FrugalGPT applies across API tiers).
* :class:`EnsembleClient` — ask several models the same unit task and expose
  all responses so a quality-control aggregator (majority vote, Dawid–Skene)
  can combine them (Section 3.5).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.llm.base import (
    BaseClient,
    Body,
    Call,
    Gather,
    LLMClient,
    LLMResponse,
    adrive,
    drive,
)
from repro.tokenizer.cost import Usage


@dataclass
class CascadeTier:
    """One tier of a cascade: a model name and the client that serves it."""

    model: str
    client: LLMClient


class CascadeRouter(BaseClient):
    """Cheap-to-expensive cascade with confidence-based escalation.

    The router asks tiers in order.  The first response whose confidence is at
    least ``confidence_threshold`` is returned; if none qualifies the final
    tier's response is returned.  The usage of every call made along the way is
    accumulated onto the returned response, so trackers see the true total
    cost of the cascade.
    """

    def __init__(self, tiers: list[CascadeTier], *, confidence_threshold: float = 0.8) -> None:
        if not tiers:
            raise ConfigurationError("a cascade needs at least one tier")
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ConfigurationError("confidence_threshold must be within [0, 1]")
        self.tiers = list(tiers)
        self.confidence_threshold = confidence_threshold
        self.escalations = 0
        self._escalation_lock = threading.Lock()

    def _body(self, call: Call) -> Body:
        """Run the cascade, escalating tier by tier.

        All prompts are asked at the cheapest tier first (as one inner call);
        only the prompts whose answer fell below the confidence threshold
        escalate to the next tier's call.  Per-prompt results — accumulated
        usage, used-tier metadata, escalation counts — are those of running
        the cascade one prompt at a time.  The call's ``model`` is ignored:
        the tiers decide which models are asked.
        """
        prompts = call.prompts
        results: list[LLMResponse | None] = [None] * len(prompts)
        accumulated = [Usage() for _ in prompts]
        used_tiers: list[list[str]] = [[] for _ in prompts]
        active = list(range(len(prompts)))
        for position, tier in enumerate(self.tiers):
            if not active:
                break
            responses = yield call.to(
                tier.client, [prompts[index] for index in active], model=tier.model
            )
            still_unsettled: list[int] = []
            for index, response in zip(active, responses):
                accumulated[index].add(response.usage)
                used_tiers[index].append(tier.model)
                results[index] = response
                if response.confidence >= self.confidence_threshold:
                    continue
                if position < len(self.tiers) - 1:
                    with self._escalation_lock:
                        self.escalations += 1
                    still_unsettled.append(index)
            active = still_unsettled
        final: list[LLMResponse] = []
        for index, response in enumerate(results):
            assert response is not None  # every prompt settles by the last tier
            response.usage = accumulated[index]
            response.metadata = {**response.metadata, "cascade_tiers": used_tiers[index]}
            final.append(response)
        return final


@dataclass
class EnsembleResponse:
    """All responses from an ensemble call, plus their combined usage."""

    responses: list[LLMResponse]
    usage: Usage = field(default_factory=Usage)

    @property
    def texts(self) -> list[str]:
        return [response.text for response in self.responses]


class EnsembleClient(BaseClient):
    """Fan one prompt out to several (model, client) pairs.

    Unlike the cascade, the ensemble always asks every member; aggregation is
    the caller's job (see :mod:`repro.quality.voting` and
    :mod:`repro.quality.dawid_skene`).
    """

    def __init__(self, members: list[CascadeTier]) -> None:
        if not members:
            raise ConfigurationError("an ensemble needs at least one member")
        self.members = list(members)

    def _ask_all(self, prompt: str, temperature: float, max_tokens: int | None) -> Body:
        """Ask every member one prompt; returns an :class:`EnsembleResponse`.

        The members' calls are independent, so they are handed to the driver
        together: the sync driver asks them in member order, the async driver
        overlaps them in wall-clock time.  The response list comes back in
        member order either way, so at temperature 0 the result is the same.
        """
        answers = yield Gather(
            [
                Call(member.client, [prompt], member.model, temperature, max_tokens, True)
                for member in self.members
            ]
        )
        responses = [answer[0] for answer in answers]
        usage = Usage()
        for response in responses:
            usage.add(response.usage)
        return EnsembleResponse(responses=responses, usage=usage)

    def complete_all(
        self,
        prompt: str,
        *,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> EnsembleResponse:
        """Ask every member and return all of their responses."""
        return drive(self._ask_all(prompt, temperature, max_tokens))

    async def acomplete_all(
        self,
        prompt: str,
        *,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> EnsembleResponse:
        """Awaitable :meth:`complete_all`: the members are asked concurrently."""
        return await adrive(self._ask_all(prompt, temperature, max_tokens))

    def _body(self, call: Call) -> Body:
        """LLMClient-compatible calls: the first member's answer, everyone's cost.

        Provided so an ensemble can stand in where a single client is
        expected; callers that want every response use :meth:`complete_all`.
        Every member is asked, so — like the cascade with ``cascade_tiers`` —
        the returned response carries the usage of all of them, and trackers
        and budgets see what the ensemble really spent.
        """
        members = [member.model for member in self.members]
        results: list[LLMResponse] = []
        for prompt in call.prompts:
            ensemble = yield from self._ask_all(prompt, call.temperature, call.max_tokens)
            response = ensemble.responses[0]
            response.usage = ensemble.usage
            response.metadata = {**response.metadata, "ensemble_members": members}
            results.append(response)
        return results
