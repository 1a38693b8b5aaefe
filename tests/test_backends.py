import base64
import json

import numpy as np
import pytest

from triplay.backends import (
    GenerationRequest,
    HttpBackendConfig,
    HttpChatBackend,
    HttpEmbeddingBackend,
    render_prompt,
)
from triplay.errors import (
    ConfigError,
    MalformedResponse,
    MissingSlot,
    RateLimited,
    Transport,
)

from conftest import ScriptedBackend, ScriptedEmbeddingBackend


class TestRenderPrompt:
    def test_searcher_substitutions(self):
        prompt = render_prompt(
            "searcher", category="Diagrams", sample_query="parallel circuit schematic"
        )
        assert "Target Category: Diagrams" in prompt
        assert "parallel circuit schematic" in prompt
        assert "<query>" in prompt

    def test_solver_contains_question_and_box_instruction(self):
        prompt = render_prompt("solver", question="Find y.")
        assert "Find y." in prompt
        assert "\\boxed{}" in prompt
        assert "considered incorrect" in prompt

    def test_judge_contains_all_slots_verbatim(self):
        prompt = render_prompt(
            "judge",
            question="What is the area?",
            ground_truth_answer="12 cm^2",
            predicted_answer="twelve",
        )
        assert "What is the area?" in prompt
        assert "12 cm^2" in prompt
        assert "twelve" in prompt

    def test_questioner_has_no_slots(self):
        prompt = render_prompt("questioner")
        assert "<question>" in prompt
        assert "short_answer" in prompt and "numeric_value" in prompt

    def test_missing_slot(self):
        with pytest.raises(MissingSlot):
            render_prompt("solver")
        with pytest.raises(MissingSlot):
            render_prompt("searcher", category="Charts")

    def test_unknown_role(self):
        with pytest.raises(ConfigError):
            render_prompt("editor")

    def test_injective_in_question(self):
        a = render_prompt("solver", question="Find x.")
        b = render_prompt("solver", question="Find y.")
        assert a != b

    def test_byte_stable(self):
        slots = {"category": "c", "sample_query": "s"}
        assert render_prompt("searcher", **slots) == render_prompt("searcher", **slots)


class TestScriptedBackends:
    def test_same_seed_same_output(self):
        request = GenerationRequest(prompt="hello", n=3)
        assert ScriptedBackend(seed=5).generate(request) == ScriptedBackend(
            seed=5
        ).generate(request)

    def test_different_seed_differs(self):
        request = GenerationRequest(prompt="hello", n=1)
        assert ScriptedBackend(seed=1).generate(request) != ScriptedBackend(
            seed=2
        ).generate(request)

    def test_n_completions(self):
        request = GenerationRequest(prompt="p", n=8)
        assert len(ScriptedBackend().generate(request)) == 8

    def test_embedding_deterministic_unit(self):
        backend = ScriptedEmbeddingBackend(dimension=16, seed=3)
        a = backend.embed("bar chart")
        b = backend.embed("bar chart")
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        c = backend.embed("line chart")
        assert not np.array_equal(a, c)

    def test_request_validation(self):
        with pytest.raises(ConfigError):
            GenerationRequest(prompt="p", n=0)
        with pytest.raises(ConfigError):
            GenerationRequest(prompt="p", temperature=-0.1)

    def test_defaults_match_sampling_contract(self):
        request = GenerationRequest(prompt="p")
        assert request.temperature == 1.0
        assert request.max_tokens == 2048


def chat_body(contents: list[str]) -> str:
    return json.dumps(
        {"choices": [{"message": {"content": c}} for c in contents]}
    )


class FakeTransport:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls: list[dict] = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append({"url": url, "payload": payload, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def make_backend(responses, max_retries=2):
    config = HttpBackendConfig(
        endpoint="https://api.example/v1/chat",
        model="test-model",
        max_retries=max_retries,
        backoff_base=0.0,
    )
    transport = FakeTransport(responses)
    backend = HttpChatBackend(config, transport=transport, sleep=lambda _t: None)
    return backend, transport


class TestHttpChatBackend:
    def test_happy_path(self):
        backend, transport = make_backend([(200, chat_body(["one", "two"]))])
        out = backend.generate(GenerationRequest(prompt="p", n=2))
        assert out == ["one", "two"]
        payload = transport.calls[0]["payload"]
        assert payload["model"] == "test-model"
        assert payload["n"] == 2
        assert payload["messages"][-1]["content"] == "p"

    def test_system_message(self):
        backend, transport = make_backend([(200, chat_body(["ok"]))])
        backend.generate(GenerationRequest(prompt="p", system="sys"))
        messages = transport.calls[0]["payload"]["messages"]
        assert messages[0] == {"role": "system", "content": "sys"}

    def test_image_payload_url(self):
        backend, transport = make_backend([(200, chat_body(["ok"]))])
        backend.generate(
            GenerationRequest(prompt="p", image_ref="https://img.example/a.png")
        )
        content = transport.calls[0]["payload"]["messages"][-1]["content"]
        assert content[0] == {"type": "text", "text": "p"}
        assert content[1]["image_url"]["url"] == "https://img.example/a.png"

    @pytest.mark.parametrize(
        "ref", ["synth://img00042", "s3://bucket/a.png", "data:image/png;base64,AAAA"]
    )
    def test_image_locator_with_scheme_sent_unchanged(self, ref):
        backend, transport = make_backend([(200, chat_body(["ok"]))])
        backend.generate(GenerationRequest(prompt="p", image_ref=ref))
        content = transport.calls[0]["payload"]["messages"][-1]["content"]
        assert content[1] == {"type": "image_url", "image_url": {"url": ref}}

    def test_image_path_inlined_as_data_uri(self, tmp_path):
        image = tmp_path / "a b.png"
        image.write_bytes(b"\x89PNG-bytes")
        expected = "data:image/png;base64," + base64.b64encode(b"\x89PNG-bytes").decode()
        for ref in (str(image), image.as_uri()):
            backend, transport = make_backend([(200, chat_body(["ok"]))])
            backend.generate(GenerationRequest(prompt="p", image_ref=ref))
            content = transport.calls[0]["payload"]["messages"][-1]["content"]
            assert content[1]["image_url"]["url"] == expected

    def test_inlined_jpeg_labelled_by_suffix(self, tmp_path):
        image = tmp_path / "photo.jpg"
        data = b"\xff\xd8\xff\xe0JFIF-bytes"
        image.write_bytes(data)
        backend, transport = make_backend([(200, chat_body(["ok"]))])
        backend.generate(GenerationRequest(prompt="p", image_ref=str(image)))
        url = transport.calls[0]["payload"]["messages"][-1]["content"][1]["image_url"]["url"]
        assert url == "data:image/jpeg;base64," + base64.b64encode(data).decode()

    def test_5xx_retries_then_surfaces(self):
        backend, transport = make_backend(
            [(503, "down"), (502, "down"), (500, "down")], max_retries=2
        )
        with pytest.raises(Transport):
            backend.generate(GenerationRequest(prompt="p"))
        assert len(transport.calls) == 3

    def test_5xx_then_recovers(self):
        backend, _ = make_backend([(503, "down"), (200, chat_body(["ok"]))])
        assert backend.generate(GenerationRequest(prompt="p")) == ["ok"]

    def test_rate_limited_surfaced(self):
        backend, _ = make_backend([(429, ""), (429, ""), (429, "")], max_retries=2)
        with pytest.raises(RateLimited):
            backend.generate(GenerationRequest(prompt="p"))

    def test_network_error_retried(self):
        backend, _ = make_backend(
            [Transport("conn reset"), (200, chat_body(["ok"]))]
        )
        assert backend.generate(GenerationRequest(prompt="p")) == ["ok"]

    def test_non_json_body(self):
        backend, _ = make_backend([(200, "<html>")])
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest(prompt="p"))

    def test_fewer_choices_than_requested(self):
        backend, _ = make_backend([(200, chat_body(["only one"]))])
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest(prompt="p", n=2))

    @pytest.mark.parametrize(
        "body",
        [
            {"choices": [{"message": {"content": None}}]},
            [{"message": {"content": "ok"}}],
        ],
        ids=("null_content", "list_body"),
    )
    def test_malformed_reply_is_malformed_response(self, body):
        # Valid JSON of the wrong shape; each once escaped as a raw builtin
        # exception (AttributeError in the judge or in the client).
        backend, _ = make_backend([(200, json.dumps(body))])
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest(prompt="p"))

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TEST_API_TOKEN", "sekrit")
        config = HttpBackendConfig(
            endpoint="https://api.example/v1/chat",
            model="m",
            auth_env="TEST_API_TOKEN",
        )
        transport = FakeTransport([(200, chat_body(["ok"]))])
        backend = HttpChatBackend(config, transport=transport, sleep=lambda _t: None)
        backend.generate(GenerationRequest(prompt="p"))
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_requires_endpoint(self):
        with pytest.raises(ConfigError):
            HttpChatBackend(HttpBackendConfig())

    @pytest.mark.parametrize("token", [None, ""], ids=("unset", "empty"))
    @pytest.mark.parametrize("client", [HttpChatBackend, HttpEmbeddingBackend])
    def test_auth_env_without_a_token_is_refused(self, monkeypatch, client, token):
        # Sent without its header, every request would end on the endpoint's
        # 401, in a message that never names auth_env.
        if token is None:
            monkeypatch.delenv("TEST_API_TOKEN", raising=False)
        else:
            monkeypatch.setenv("TEST_API_TOKEN", token)
        config = HttpBackendConfig(
            endpoint="https://api.example/v1/chat",
            model="m",
            embedding_endpoint="https://api.example/v1/embed",
            embedding_model="emb",
            auth_env="TEST_API_TOKEN",
        )
        transport = FakeTransport([])
        with pytest.raises(ConfigError, match="auth_env names TEST_API_TOKEN"):
            client(config, transport=transport, sleep=lambda _t: None)
        assert transport.calls == []


def make_embedding_backend(auth_env="", embedding=(0.1, 0.2, 0.3)):
    config = HttpBackendConfig(
        embedding_endpoint="https://api.example/v1/embed",
        embedding_model="emb",
        auth_env=auth_env,
    )
    body = json.dumps({"data": [{"embedding": list(embedding)}]})
    transport = FakeTransport([(200, body)])
    backend = HttpEmbeddingBackend(config, transport=transport, sleep=lambda _t: None)
    return backend, transport


class TestHttpEmbeddingBackend:
    def test_happy_path(self):
        backend, _ = make_embedding_backend()
        vec = backend.embed("query")
        np.testing.assert_allclose(vec, [0.1, 0.2, 0.3])
        assert backend.dimension == 3

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TEST_API_TOKEN", "sekrit")
        backend, transport = make_embedding_backend(auth_env="TEST_API_TOKEN")
        backend.embed("query")
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_no_auth_header_without_auth_env(self, monkeypatch):
        monkeypatch.setenv("TEST_API_TOKEN", "sekrit")
        backend, transport = make_embedding_backend()
        backend.embed("query")
        assert "Authorization" not in transport.calls[0]["headers"]

    def test_missing_data(self):
        config = HttpBackendConfig(
            embedding_endpoint="https://api.example/v1/embed",
            embedding_model="emb",
        )
        transport = FakeTransport([(200, json.dumps({"oops": 1}))])
        backend = HttpEmbeddingBackend(config, transport=transport, sleep=lambda _t: None)
        with pytest.raises(MalformedResponse):
            backend.embed("query")

    @pytest.mark.parametrize(
        "embedding",
        [[0.1, "x"], [[0.1, 0.2], [0.3]], [[0.1, 0.2]]],
        ids=("non_numeric", "ragged", "matrix"),
    )
    def test_malformed_embedding(self, embedding):
        # A non-numeric or ragged embedding once escaped as a raw ValueError.
        backend, _ = make_embedding_backend(embedding=embedding)
        with pytest.raises(MalformedResponse):
            backend.embed("query")
        assert backend.dimension is None
