"""Ollama-protocol HTTP client for the LLM extraction backend.

Protocol-faithful to the reference's client (reference: services.py:178-231):
``GET /api/tags`` health probe (5 s timeout), ``POST /api/generate`` with
``stream=False, format="json"`` and the reference's sampling options,
``settings.OLLAMA_TIMEOUT``-equivalent request timeout (config
``llm_timeout_s``, default 120 s), and the same failure surface — timeout,
connection error, non-200, and empty/"{}" responses all raise, which the
extraction orchestrator turns into the rules fallback (reference:
services.py:102-115).

Scale deviations from the reference, both deliberate:

* the health probe runs once per client, i.e. once per partition reduce
  task (the client travels pickled with the extractor and starts each
  task unprobed), not once per request — at batch throughput a
  per-request probe doubles request count for no signal;
* one ``requests.Session`` per client gives connection keep-alive across
  the partition's conversations (the reference opens a fresh connection
  per call).

The prompt template is the reference's verbatim (services.py:355-377)
including the ``text[:2000]`` truncation (configurable via
``llm_max_chars``).

No model runtime exists in this sandbox, so CI exercises the client against
a local stub HTTP server (tests/test_llm_client.py); production use only
needs ``KGConfig(backend="llm", llm_base_url=...)``.
"""

from __future__ import annotations

PROMPT_TEMPLATE = """Extract entities and relationships from the following text and return ONLY a valid JSON object with this exact structure:

{{
  "nodes": [
    {{"id": "n1", "label": "Entity Name", "type": "Person"}},
    {{"id": "n2", "label": "Another Entity", "type": "Organization"}}
  ],
  "edges": [
    {{"source": "n1", "target": "n2", "relationship": "works_at"}}
  ]
}}

Entity types can be: Person, Organization, Location, Concept, Event, Product, Technology, etc.
Relationships should be concise verbs or phrases like: works_at, located_in, founded_by, created, manages, etc.

Text to analyze:
{text}

Return ONLY the JSON object, no other text."""


def extraction_prompt(text: str, max_chars: int = 2000) -> str:
    """Reference prompt (services.py:355-377); truncation at the template's
    insertion point, exactly ``text[:2000]`` semantics."""
    return PROMPT_TEMPLATE.format(text=text[:max_chars])


class LLMUnavailable(Exception):
    """Service not reachable / unhealthy — callers fall back to rules."""


class OllamaClient:
    """Minimal Ollama generate-API client with per-task session reuse."""

    def __init__(self, base_url: str, model: str,
                 timeout_s: float = 120.0, health_timeout_s: float = 5.0):
        import requests

        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout_s = timeout_s
        self.health_timeout_s = health_timeout_s
        self._session = requests.Session()
        self._healthy: bool | None = None

    def health_check(self) -> bool:
        """GET /api/tags must answer 200 (reference: services.py:186-189)."""
        import requests

        try:
            r = self._session.get(f"{self.base_url}/api/tags",
                                  timeout=self.health_timeout_s)
            return r.status_code == 200
        except requests.exceptions.RequestException:
            return False

    def generate(self, prompt: str) -> str:
        """POST /api/generate; returns the raw response text for the JSON
        rescue pipeline. Raises on any transport/protocol/empty failure."""
        import requests

        if self._healthy is None:
            self._healthy = self.health_check()
        if not self._healthy:
            # re-probe on the NEXT call: a task started before the service
            # was up must recover once it is, instead of silently degrading
            # to rules for its whole partition (ADVICE round 2)
            self._healthy = None
            raise LLMUnavailable("Ollama service not available")
        try:
            r = self._session.post(
                f"{self.base_url}/api/generate",
                json={
                    "model": self.model,
                    "prompt": prompt,
                    "stream": False,
                    "format": "json",
                    # reference sampling options, services.py:196-202
                    "options": {
                        "temperature": 0.7,
                        "num_predict": 2000,
                        "top_p": 0.9,
                        "repeat_penalty": 1.1,
                    },
                },
                timeout=self.timeout_s,
            )
        except requests.exceptions.Timeout as e:
            raise TimeoutError("Ollama timeout") from e
        except requests.exceptions.ConnectionError as e:
            # connection died mid-lifetime: next call re-probes health
            self._healthy = None
            raise LLMUnavailable("Ollama connection error") from e
        if r.status_code != 200:
            raise RuntimeError(f"Ollama API error: {r.status_code}")
        graph_text = r.json().get("response", "{}")
        if not graph_text or graph_text.strip() == "{}":
            raise ValueError("Empty response from Ollama")
        return graph_text


class OpenAIClient:
    """Chat-completions-protocol client (reference: services.py:322-353,
    config.py:20-25 — the reference uses the ``openai`` SDK with
    ``gpt-3.5-turbo``; this speaks the same wire protocol directly so any
    OpenAI-compatible endpoint works, hosted or local).

    Same failure surface as ``OllamaClient`` — timeout, connection error,
    non-200 and empty responses all raise, feeding the orchestrator's rules
    fallback. The protocol has no health endpoint, matching the reference's
    try-and-fall-back behavior for this branch (services.py:96-101)."""

    def __init__(self, base_url: str, model: str, api_key: str = "",
                 timeout_s: float = 120.0):
        import requests

        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout_s = timeout_s
        self._session = requests.Session()
        if api_key:
            self._session.headers["Authorization"] = f"Bearer {api_key}"

    def generate(self, prompt: str) -> str:
        import requests

        try:
            r = self._session.post(
                f"{self.base_url}/v1/chat/completions",
                json={
                    "model": self.model,
                    "messages": [{"role": "user", "content": prompt}],
                    # reference sampling (services.py:340-345): temperature
                    # 0.7, max_tokens 2000; JSON-object response mode is the
                    # chat-protocol analogue of Ollama's format="json"
                    "temperature": 0.7,
                    "max_tokens": 2000,
                    "response_format": {"type": "json_object"},
                },
                timeout=self.timeout_s,
            )
        except requests.exceptions.Timeout as e:
            raise TimeoutError("OpenAI-protocol timeout") from e
        except requests.exceptions.ConnectionError as e:
            raise LLMUnavailable("OpenAI-protocol connection error") from e
        if r.status_code != 200:
            raise RuntimeError(f"OpenAI-protocol API error: {r.status_code}")
        try:
            graph_text = r.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise ValueError("Malformed chat-completions response") from e
        if not graph_text or graph_text.strip() == "{}":
            raise ValueError("Empty response from chat-completions API")
        return graph_text
