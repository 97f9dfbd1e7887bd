"""Tests for the retry wrapper."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.llm.faulty import FaultyLLM
from repro.llm.retry import RetryingClient
from tests.doubles import garbled, yes_backend, yes_no_validator


class TestRetryingClient:
    def test_passthrough_without_validator(self):
        client = RetryingClient(FaultyLLM(yes_backend(), garbled(5)))
        response = client.complete("prompt")
        assert response.metadata["attempts"] == 1
        assert client.stats.retries == 0

    def test_retries_until_valid(self):
        flaky = FaultyLLM(yes_backend(), garbled(2))
        client = RetryingClient(flaky, validator=yes_no_validator, max_retries=3)
        response = client.complete("prompt")
        assert response.text == "Yes."
        assert response.metadata["attempts"] == 3
        assert flaky.calls == 3
        assert client.stats.retries == 2
        assert client.stats.failures == 0

    def test_usage_accumulates_across_attempts(self):
        flaky = FaultyLLM(yes_backend(), garbled(1))
        client = RetryingClient(flaky, validator=yes_no_validator)
        response = client.complete("prompt")
        assert response.usage.prompt_tokens == 20
        assert response.usage.calls == 2

    def test_gives_up_after_max_retries(self):
        flaky = FaultyLLM(yes_backend(), garbled(10))
        client = RetryingClient(flaky, validator=yes_no_validator, max_retries=2)
        response = client.complete("prompt")
        assert response.metadata["attempts"] == 3
        assert client.stats.failures == 1
        assert "garbled" in response.text

    def test_retry_uses_higher_temperature(self):
        flaky = FaultyLLM(yes_backend(), garbled(1))
        client = RetryingClient(
            flaky, validator=yes_no_validator, max_retries=1, retry_temperature=0.9
        )
        response = client.complete("prompt", temperature=0.0)
        assert response.metadata["temperature"] == 0.9

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            RetryingClient(FaultyLLM(yes_backend(), garbled(0)), max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryingClient(FaultyLLM(yes_backend(), garbled(0)), retry_temperature=-0.5)

    def test_validator_returning_false_triggers_retry(self):
        flaky = FaultyLLM(yes_backend(), garbled(1))
        client = RetryingClient(
            flaky, validator=lambda text: "yes" in text.lower(), max_retries=2
        )
        response = client.complete("prompt")
        assert response.text == "Yes."
        assert response.metadata["attempts"] == 2
