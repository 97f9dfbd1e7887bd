"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses distinguish the three
failure domains a declarative prompt-engineering toolkit has to care about:
the LLM substrate (context limits, parse failures), the budget (cost limits),
and the declarative layer (bad specs, unknown strategies).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class UnknownModelError(ReproError):
    """A model name was requested that is not present in the registry."""


class ContextLengthExceededError(ReproError):
    """A prompt did not fit into the model's context window.

    Mirrors the hard failure a real LLM API returns when the number of prompt
    tokens exceeds the model's context length.
    """

    def __init__(self, prompt_tokens: int, context_length: int, model: str = "") -> None:
        self.prompt_tokens = prompt_tokens
        self.context_length = context_length
        self.model = model
        message = (
            f"prompt of {prompt_tokens} tokens exceeds context length "
            f"{context_length}" + (f" for model {model!r}" if model else "")
        )
        super().__init__(message)


class ResponseParseError(ReproError):
    """The answer could not be extracted from an LLM response."""

    def __init__(self, message: str, response_text: str = "") -> None:
        self.response_text = response_text
        super().__init__(message)


class BudgetExceededError(ReproError):
    """An operation would exceed (or has exceeded) the monetary budget."""

    def __init__(self, spent: float, limit: float, message: str | None = None) -> None:
        self.spent = spent
        self.limit = limit
        super().__init__(
            message or f"budget exceeded: spent ${spent:.6f} of ${limit:.6f} limit"
        )


class RateLimitError(ReproError):
    """The LLM backend refused a call because a rate limit was hit.

    Mirrors the 429-style signal real provider APIs return.  ``retry_after``
    carries the backend's suggested wait in seconds when it supplied one (0
    otherwise); the :class:`~repro.core.governor.ConcurrencyGovernor` consumes
    it to drive adaptive backoff, falling back to exponential delays when the
    backend gave no hint.
    """

    def __init__(self, message: str = "rate limit exceeded", retry_after: float = 0.0) -> None:
        self.retry_after = retry_after
        if retry_after:
            message += f" (retry after {retry_after:g}s)"
        super().__init__(message)


class BackendConnectionError(ReproError, ConnectionError):
    """The LLM backend could not be reached; a built-in ``ConnectionError`` too."""


class SpecError(ReproError):
    """A declarative task specification is invalid or incomplete."""


class UnknownStrategyError(SpecError):
    """The requested strategy name is not registered for the operator."""

    def __init__(self, operator: str, strategy: str, available: list[str] | None = None) -> None:
        self.operator = operator
        self.strategy = strategy
        self.available = list(available or [])
        message = f"unknown strategy {strategy!r} for operator {operator!r}"
        if self.available:
            message += f" (available: {', '.join(sorted(self.available))})"
        super().__init__(message)


class StoreError(ReproError):
    """The durable store could not be opened or used safely.

    Raised when a store file belongs to another application or was written
    by a newer library version — the cases where silently rebuilding would
    destroy data the library does not own or cannot read.
    """


class TraceError(ReproError):
    """A call trace could not be recorded, loaded, or replayed.

    Raised most prominently by the replay fixture when a replayed run asks
    for a prompt the recorded trace never answered — the signal that a
    "zero live calls" replay would have needed a live call.
    """


class DatasetError(ReproError):
    """A dataset is malformed for the requested operation."""


class QualityControlError(ReproError):
    """A quality-control procedure could not be carried out."""
