"""The service's and the store's wire bytes, pinned.

Every record the library ships crosses JSON: a quote, a job, its report and
step events, a tenant's usage, a response-cache row.  Clients parse these
bodies and store files outlive the process that wrote them, so a refactor of
how records are encoded must leave every byte where it was.  The bodies below
were recorded from one seeded two-step job; only job ids and wall-clock
readings are normalised.  Do not regenerate them to make a change pass: a
changed byte here is a changed wire.

Run this file as a script (``PYTHONPATH=src python
tests/service/test_wire_golden.py``) to print the current bodies, for
recording a deliberate wire change.
"""

from __future__ import annotations

import asyncio
import json
import re
from pathlib import Path

from repro.core.spec_codec import pipeline_to_dict
from repro.llm.base import LLMResponse
from repro.service import ServiceApp, ServiceClient, TenantConfig, TenantRegistry
from repro.store import Store
from repro.store.response_cache import decode_response, encode_response
from repro.tokenizer.cost import Usage

from _service_helpers import MODEL, demo_pipeline, make_client

GOLDEN = json.loads((Path(__file__).parent / "wire_golden.json").read_text(encoding="utf-8"))

#: What varies between identical runs: minted job ids and wall-clock readings.
_VOLATILE = (
    (re.compile(r"[0-9a-f]{32}"), "<job>"),
    (re.compile(r'"(duration_ms|wait_seconds)": [0-9.e+-]+'), r'"\1": 0'),
)


def _normalised(body: str) -> str:
    for pattern, replacement in _VOLATILE:
        body = pattern.sub(replacement, body)
    return body


def service_bodies(tmp_path: Path) -> dict[str, str]:
    """The bodies of one seeded job's quote, submit, poll, events and usage."""
    store = Store(tmp_path / "golden.db")
    registry = TenantRegistry(
        make_client(),
        [
            TenantConfig(
                tenant_id="acme",
                api_key="key-acme",
                budget_dollars=10.0,
                rpm=1_000_000,
                max_concurrency=1,
                default_model=MODEL,
            )
        ],
        store=store,
    )
    app = ServiceApp(registry)
    client = ServiceClient(app, api_key="key-acme")
    pipeline = pipeline_to_dict(demo_pipeline())

    async def scenario() -> dict[str, str]:
        bodies = {}
        quoted = await client.post("/v1/pipelines/quote", json_body=pipeline)
        bodies["quote"] = quoted.text
        submitted = await client.post("/v1/pipelines", json_body=pipeline)
        bodies["submit"] = submitted.text
        job_id = submitted.json()["job_id"]
        while True:
            polled = await client.get(f"/v1/jobs/{job_id}")
            if polled.json()["status"] in ("succeeded", "failed", "stopped"):
                break
            await asyncio.sleep(0.01)
        bodies["job"] = polled.text
        bodies["events"] = (await client.get(f"/v1/jobs/{job_id}/events")).text
        bodies["usage"] = (await client.get("/v1/tenants/acme/usage")).text
        await app.shutdown()
        return bodies

    try:
        bodies = asyncio.run(scenario())
    finally:
        store.close()
    return {name: _normalised(body) for name, body in bodies.items()}


def pinned_response() -> LLMResponse:
    return LLMResponse(
        text="Yes.",
        model=MODEL,
        usage=Usage(prompt_tokens=41, completion_tokens=2, calls=1),
        finish_reason="length",
        confidence=0.875,
        metadata={"cache_hit": False, "route": ["a", 1]},
    )


class TestWireGolden:
    def test_service_bodies_are_byte_identical(self, tmp_path):
        bodies = service_bodies(tmp_path)
        for name, body in bodies.items():
            assert body == GOLDEN["service"][name], name
        assert set(bodies) == set(GOLDEN["service"])

    def test_a_response_cache_payload_is_byte_identical(self):
        payload = encode_response(pinned_response())
        assert payload == GOLDEN["response"]
        assert decode_response(payload) == pinned_response()
        assert encode_response(decode_response(payload)) == payload


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        recorded = {
            "service": service_bodies(Path(directory)),
            "response": encode_response(pinned_response()),
        }
    print(json.dumps(recorded, indent=1, sort_keys=True))
