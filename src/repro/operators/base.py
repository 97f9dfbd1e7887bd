"""Shared plumbing for operators: results, strategy registries, LLM access.

Every operator extends :class:`BaseOperator`, which owns a client whose
calls cross one response cache and a registry of named strategies.  Each
run goes through :meth:`BaseOperator._run`, which keeps that run's book: a
fresh usage tracker fed by what its dispatches return, read into the
result when the strategy returns.  Operator results extend
:class:`OperatorResult`, which carries the usage and dollar cost alongside the
task output so benchmarks can report the cost columns of the paper's tables
without extra bookkeeping.

Every operator call goes through the operator's
:class:`~repro.core.executor.BatchExecutor`: a bag of independent unit tasks
through :meth:`BaseOperator._complete_batch` (or
:meth:`BaseOperator._complete_requests` for heterogeneous per-call models),
and a call whose prompt depends on an earlier answer through
:meth:`BaseOperator._complete`, a bag of one.  So ``max_concurrency`` and a
budget's early stop hold for every strategy: a call reaching the backend
crosses the session's ``BackendGate``, which charges what the session client
names.  At the default ``max_concurrency`` of 1 execution is sequential and
deterministic, and at temperature 0 the concurrent path produces
element-wise identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MethodType
from typing import Any, Callable, Sequence

from repro.core.executor import BatchExecutor, BatchRequest
from repro.core.session import SessionClient
from repro.exceptions import UnknownStrategyError
from repro.llm.base import LLMClient, LLMResponse
from repro.llm.cache import CachedClient
from repro.llm.tracker import UsageTracker
from repro.tokenizer.cost import CostModel, Usage, to_dollars


def _caches(client: LLMClient) -> bool:
    """Whether a call through ``client`` already crosses a response cache."""
    if isinstance(client, SessionClient):
        client = client.session._client
    return isinstance(client, CachedClient)


@dataclass
class OperatorResult:
    """Base class for operator outputs.

    Attributes:
        strategy: the strategy that produced this result.
        usage: total token usage of the LLM calls made.
        cost: dollar cost of those calls (zero when no cost model is attached).
        metadata: strategy-specific extras (e.g. number of cache hits).
    """

    strategy: str
    usage: Usage = field(default_factory=Usage)
    cost: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)


class BaseOperator:
    """Common infrastructure for declarative operators.

    Args:
        client: the LLM client unit tasks go out through.  One that caches
            already (a caching session's client, a ``CachedClient``) is used
            as it is: an in-run duplicate is a ``cache_hit`` call of the
            session.  Anything else gets one private cache (``use_cache``).
            The client names what its calls are charged to: the engine hands
            every operator ``session.client(budget)``.  A raw client has no
            budget; to give it one, wrap the backend in
            ``PromptSession(backend, budget=...)`` and hand the operator
            ``session.client()``.
        model: default model for this operator's unit tasks.
        cost_model: optional price table used to convert usage to dollars.
        use_cache: whether identical temperature-0 prompts are served from a
            response cache (recommended; several strategies re-ask pairs).
        max_concurrency: how many of the operator's independent unit tasks may
            be in flight at once; 1 (the default) runs them sequentially.
    """

    #: Operator name used in error messages; subclasses override.
    operation = "operator"

    def __init__(
        self,
        client: LLMClient,
        *,
        model: str | None = None,
        cost_model: CostModel | None = None,
        use_cache: bool = True,
        max_concurrency: int = 1,
    ) -> None:
        self.model = model
        #: The book of the current (or last) run: :meth:`_booked` starts one.
        self.tracker = UsageTracker(cost_model=cost_model)
        if use_cache and not _caches(client):
            client = CachedClient(client)
        self._client = client
        self.max_concurrency = max_concurrency
        self._executor = BatchExecutor(client, max_concurrency=max_concurrency)
        #: name -> (runner, whether it is a method of this operator to bind
        #: at dispatch).
        self._strategies: dict[str, tuple[Callable[..., Any], bool]] = {}
        self._register_strategies()

    # -- strategy registry -----------------------------------------------------

    def _register_strategies(self) -> None:
        """Subclasses register their strategies here."""

    def register_strategy(self, name: str, runner: Callable[..., Any]) -> None:
        """Register a named strategy implemented by ``runner``.

        A bound method of this operator is kept as its function and bound
        again by :meth:`_strategy`: a table of ``self._run_*`` would make the
        operator a reference cycle, and everything a run holds through it
        (session, span ring, responses) memory that only a full collection
        returns.
        """
        own = getattr(runner, "__self__", None) is self
        self._strategies[name] = (runner.__func__ if own else runner, own)

    @property
    def strategies(self) -> list[str]:
        """Names of the registered strategies."""
        return sorted(self._strategies)

    def _strategy(self, name: str) -> Callable[..., Any]:
        try:
            runner, own = self._strategies[name]
        except KeyError as exc:
            raise UnknownStrategyError(self.operation, name, self.strategies) from exc
        return MethodType(runner, self) if own else runner

    # -- LLM access --------------------------------------------------------------

    def _complete(
        self, prompt: str, *, model: str | None = None, temperature: float = 0.0
    ) -> LLMResponse:
        """Issue one unit task whose prompt depends on an earlier answer.

        A bag of one: dispatched, gated and tracked like any other.
        """
        (response,) = self._complete_requests(
            [BatchRequest(prompt=prompt, model=model or self.model, temperature=temperature)]
        )
        return response

    def _complete_batch(
        self, prompts: Sequence[str], *, model: str | None = None, temperature: float = 0.0
    ) -> list[LLMResponse]:
        """Issue a bag of independent unit tasks, responses in prompt order.

        This is the hot path of every fine-grained strategy: the batch runs
        through the operator's :class:`~repro.core.executor.BatchExecutor`,
        sequentially at ``max_concurrency == 1`` and fanned out (threads join
        in when calls wait) otherwise.
        """
        return self._complete_requests(
            [
                BatchRequest(prompt=prompt, model=model or self.model, temperature=temperature)
                for prompt in prompts
            ]
        )

    def _complete_requests(self, requests: Sequence[BatchRequest]) -> list[LLMResponse]:
        """Issue fully specified unit tasks (per-request models/temperatures)."""
        responses = self._executor.run(requests)
        self.tracker.record_batch(responses)
        return responses

    # -- runs ------------------------------------------------------------------------

    def _run(self, strategy: str, *args: Any, **kwargs: Any) -> Any:
        """Run the registered ``strategy`` on ``args`` as one booked run."""
        return self._booked(strategy, self._strategy(strategy), *args, **kwargs)

    def _booked(self, strategy: str, runner: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``runner`` on a fresh ``self.tracker``; the result's ``usage`` and
        ``cost`` are what the run's dispatches recorded there, and nothing else."""
        self.tracker = book = UsageTracker(cost_model=self.tracker.cost_model)
        result = runner(*args, **kwargs)
        result.strategy = strategy
        result.usage = book.usage
        if book.cost_model is not None:
            result.cost = to_dollars(book.cost())
        return result
