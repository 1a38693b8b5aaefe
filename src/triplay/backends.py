"""Pluggable generation and embedding backends plus role prompt templates.

All three agent roles and the judge share one backend interface; the role is
purely a prompt-level distinction, and render_prompt fills a template by role
name. Remote backends speak JSON-over-HTTP chat completions and embeddings,
both POSTed through one retrying path. Synthetic mode calls no backend: its
roles come from the synthetic world, which is also its query embedder.
"""

from __future__ import annotations

import base64
import json
import mimetypes
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlparse
from urllib.request import url2pathname

import numpy as np

from .errors import (
    ConfigError,
    MalformedResponse,
    MissingSlot,
    RateLimited,
    Transport,
)

SEARCHER_TEMPLATE = """\
You are an AI Data Engineer. Your task is to generate a unique and concise image retrieval query.

Target Category: {category}
Focus on: {sample_query}

Diversity Requirements:
Vary the Subject: Do not use common examples. Explore different specific objects within the focus area.

Output Format:
<type>{category}</type>
<query>[Concise description emphasizing structure and key markers based on the focus keywords]</query>

Example (Reference only, DO NOT COPY):
<type>{category}</type>
<query>{sample_query}</query>"""

QUESTIONER_TEMPLATE = """\
You are an Expert Visual Reasoning Specialist. Your task is to analyze the image, identify core constraints, and generate a high-quality reasoning question that requires multi-step derivation.

Requirements:
- The Analysis Phase must contain:
  - Visible Elements: List specific labels, numbers, objects, and spatial markers.
  - Constraints: Identify explicit or implicit rules (e.g., parallel lines, gravity, total percentages in a chart).
  - Step-by-Step Solution: Solve your intended question entirely using only the image data to ensure it is mathematically/logically sound.
- No Simple Description: Do NOT ask questions that can be answered by simple object identification, color naming, or simple counting.
- Logical Depth: The question must require interpreting intent, calculating based on visual cues, spatial transformations, or inferring cause-and-effect.

Question Type:
1. short_answer: Requires a short phrase based on logical inference.
2. numeric_value: Requires a calculation or estimation. Provide only the pure number.

Output Format:
<think>A</think>
<type>X</type>
<question>Y</question>
<answer>Z</answer>

Strict Rules:
- A must be the analysis phase.
- X must be one of: short_answer or numeric_value.
- Z must be the minimal correct value (phrase or number).
- Do not add any extra text, labels, or explanations.

Examples of Reasoning-based Questions:

<think>Visible Elements: A balanced scale shows 3 circles on the left and 2 squares on the right. Constraints: Balanced means equal total weight. Step-by-Step Solution: 3c = 2s => s = 1.5c, so a square is heavier than a circle.</think>
<type>short_answer</type>
<question>Which is heavier: one square or one circle?</question>
<answer>square</answer>

<think>Visible Elements: A triangle with base labeled y, left side labeled 12, right side labeled x, base angles labeled 30 degrees (left) and 60 degrees (right), and a right-angle marker at the top indicating 90 degrees. Constraints: A 30-60-90 triangle has side ratios 1:√3:2 (opposite 30, 60, 90 respectively). Step-by-Step Solution: The side 12 is opposite 60 degrees, so 12 = √3k => k = 12/√3 = 4√3. The hypotenuse is y = 2k = 8√3.</think>
<type>numeric_value</type>
<question>Find y.</question>
<answer>8√3</answer>"""

SOLVER_TEMPLATE = """\
Please reason step by step carefully based on the question: {question} and the image.
After completing your reasoning, you MUST output the final, clean, and concise answer strictly inside \\boxed{{}}.
The final answer MUST appear inside \\boxed{{}}, and nowhere else.
If there is no boxed answer, your response is considered incorrect."""

JUDGE_SYSTEM_MESSAGE = (
    "You are an answer evaluation assistant. Your task is to judge whether two "
    "answers are substantially equivalent. When evaluating, you should ignore "
    "superficial differences such as format, spaces, punctuation, case, etc., "
    "and focus on whether they are consistent in core content, logical meaning "
    "and information expression. The judgment criteria should be lenient and "
    "inclusive, as long as the expressed meaning is basically the same, it is "
    "considered equivalent."
)

JUDGE_TEMPLATE = (
    'Given the question {question}, please judge whether the following two '
    'answers express the same meaning. Please only answer "correct" or '
    '"incorrect". Correct answer: {ground_truth_answer}. Answer to be judged: '
    '{predicted_answer}. Judgment result (only answer "correct" or '
    '"incorrect"). You don\'t need to reason, just answer "correct" or '
    '"incorrect". Don\'t say anything else. Only answer "correct" or '
    '"incorrect" directly without thinking.'
)

_ROLE_TEXT = {
    "searcher": SEARCHER_TEMPLATE,
    "questioner": QUESTIONER_TEMPLATE,
    "solver": SOLVER_TEMPLATE,
    "judge": JUDGE_TEMPLATE,
}

_ROLE_SLOTS = {
    "searcher": ("category", "sample_query"),
    "questioner": (),
    "solver": ("question",),
    "judge": ("question", "ground_truth_answer", "predicted_answer"),
}


def render_prompt(role: str, **slots: str) -> str:
    """The role's template with its slots filled; byte-stable across runs."""
    if role not in _ROLE_TEXT:
        raise ConfigError(f"unknown prompt role {role!r}")
    required = _ROLE_SLOTS[role]
    missing = [name for name in required if slots.get(name) is None]
    if missing:
        raise MissingSlot(f"role {role!r} is missing slot(s): {', '.join(missing)}")
    return _ROLE_TEXT[role].format(**{k: slots[k] for k in required})


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    image_ref: str | None = None
    n: int = 1
    temperature: float = 1.0
    max_tokens: int = 2048
    system: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.n}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")


@dataclass
class HttpBackendConfig:
    endpoint: str = ""
    model: str = ""
    auth_env: str = ""
    timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 0.5
    in_flight: int = 4
    embedding_endpoint: str = ""
    embedding_model: str = ""


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float):
    import requests

    try:
        resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise Transport(f"request to {url} failed: {exc}") from exc
    return resp.status_code, resp.text


def _post_with_retry(transport, url, payload, headers, config, sleep) -> dict:
    """The package's one retry loop, over transport errors, 429s and 5xx."""
    attempts = max(1, config.max_retries + 1)
    last: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            sleep(config.backoff_base * (2 ** (attempt - 1)))
        try:
            status, text = transport(url, payload, headers, config.timeout)
        except Transport as exc:
            last = exc
            continue
        if status == 429:
            last = RateLimited(f"{url} returned 429")
            continue
        if status >= 500:
            last = Transport(f"{url} returned {status}")
            continue
        if status != 200:
            raise Transport(f"{url} returned {status}: {text[:200]}")
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedResponse(f"{url} returned non-JSON body") from exc
    raise last if last is not None else Transport(f"no response from {url}")


_URL_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://")


def _image_content(image_ref: str) -> dict:
    """A data: URI or a locator with a URL scheme (http, synth, ...) is sent
    as given; a bare path or a file:// URL is read and inlined as a data URI
    whose MIME type comes from the file's suffix (PNG when that is unknown)."""
    if image_ref.startswith("file://"):
        path = url2pathname(urlparse(image_ref).path)
    elif image_ref.startswith("data:") or _URL_SCHEME.match(image_ref):
        return {"type": "image_url", "image_url": {"url": image_ref}}
    else:
        path = image_ref
    data = Path(path).read_bytes()
    mime = mimetypes.guess_type(path)[0] or "image/png"
    url = f"data:{mime};base64," + base64.b64encode(data).decode("ascii")
    return {"type": "image_url", "image_url": {"url": url}}


class _HttpClient:
    """POSTs JSON through _post_with_retry, with a bearer token read once from
    the environment variable named by config.auth_env when that is set; one
    unset or empty raises ConfigError naming the variable, never its value."""

    def __init__(self, config: HttpBackendConfig, transport=None, sleep=time.sleep):
        self.config = config
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        if config.auth_env:
            token = os.environ.get(config.auth_env)
            if not token:
                raise ConfigError(f"backend.auth_env names {config.auth_env}, unset or empty")
            self._headers["Authorization"] = f"Bearer {token}"

    def _post(self, url: str, payload: dict) -> dict:
        return _post_with_retry(
            self._transport, url, payload, self._headers, self.config, self._sleep
        )


class HttpChatBackend(_HttpClient):
    """JSON-over-HTTP chat-completion client with exponential-backoff retry."""

    def __init__(self, config: HttpBackendConfig, transport=None, sleep=time.sleep):
        if not config.endpoint or not config.model:
            raise ConfigError("remote backend requires endpoint and model")
        super().__init__(config, transport, sleep)

    def generate(self, request: GenerationRequest) -> list[str]:
        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        if request.image_ref:
            content = [
                {"type": "text", "text": request.prompt},
                _image_content(request.image_ref),
            ]
        else:
            content = request.prompt
        messages.append({"role": "user", "content": content})
        payload = {
            "model": self.config.model,
            "messages": messages,
            "n": request.n,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        body = self._post(self.config.endpoint, payload)
        choices = body.get("choices") if isinstance(body, dict) else None
        if not isinstance(choices, list) or len(choices) < request.n:
            raise MalformedResponse(f"expected {request.n} choices in reply {str(body)[:200]}")
        out = []
        for choice in choices[: request.n]:
            try:
                content = choice["message"]["content"]
            except (TypeError, KeyError) as exc:
                raise MalformedResponse("choice missing message content") from exc
            if not isinstance(content, str):
                raise MalformedResponse(f"choice content is {content!r}, not a string")
            out.append(content)
        return out


class HttpEmbeddingBackend(_HttpClient):
    """JSON-over-HTTP embedding client sharing the chat client's retry policy."""

    def __init__(self, config: HttpBackendConfig, transport=None, sleep=time.sleep):
        if not config.embedding_endpoint or not config.embedding_model:
            raise ConfigError(
                "remote embedding backend requires embedding_endpoint and embedding_model"
            )
        super().__init__(config, transport, sleep)
        self.dimension: int | None = None

    def embed(self, text: str) -> np.ndarray:
        payload = {"model": self.config.embedding_model, "input": text}
        body = self._post(self.config.embedding_endpoint, payload)
        try:
            vec = np.asarray(body["data"][0]["embedding"], dtype=np.float64)
        except (TypeError, KeyError, IndexError, ValueError) as exc:
            raise MalformedResponse("embedding response has no numeric data[0].embedding") from exc
        if vec.ndim != 1:
            raise MalformedResponse(f"embedding must be a vector, got shape {vec.shape}")
        self.dimension = int(vec.shape[0])
        return vec
