"""In-process stand-in for the OpenAI-compatible chat and embedding servers
that remote mode talks to.

It replaces ``requests.post`` while installed, so the engine's real HTTP
client code (payload building, retry and backoff, reply parsing) runs
unchanged; only the network hop is faked. Every reply is a pure function of
(seed, payload), so a run's artifacts and request counts repeat exactly even
when the engine fans requests out over threads.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from contextlib import contextmanager

import numpy as np

# Every endpoint of the benchmark's remote config points here. Should a request
# ever bypass the fake, it goes to the local discard port and fails at once.
ENDPOINT = "http://127.0.0.1:9/v1"
IMAGE_HOST = "https://images.example"

ROLES = ("searcher", "questioner", "solver", "judge", "embed")

# About one payload in RATE_LIMIT_EVERY gets a 429 on its first attempt.
RATE_LIMIT_EVERY = 50
# Share of solver answers written as English numerals ("forty-two").
SPELLED_SHARE = 0.2

_ADJECTIVES = ("sparse", "faint", "busy", "dense", "tangled", "ornate", "plain", "layered")
_NOUNS = ("outline", "sketch", "lattice", "network", "mosaic", "montage", "collage", "layout")
_QUESTION_FORMS = (
    "At a glance, which {noun} value does panel {image} report?",
    "Derive the implied {noun} value from the relationships in panel {image}.",
    "Untangle the dependencies in panel {image} and compute the {noun} value.",
    "Inspect panel {image} carefully: what {noun} quantity does it yield?",
)

_NEAR_MISSES = (-1, 1)
_UNITS = (
    "zero one two three four five six seven eight nine ten eleven twelve thirteen "
    "fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = "_ _ twenty thirty forty fifty sixty seventy eighty ninety".split()
_JUDGE_RE = re.compile(r"Correct answer: (.*?)\. Answer to be judged: (.*?)\. Judgment result")
_CATEGORY_RE = re.compile(r"Target Category: (\S+)")


def spell(value: int) -> str:
    """English numeral for 0..99, hyphenated as in "forty-two"."""
    if value < 20:
        return _UNITS[value]
    tens, units = divmod(value, 10)
    return _TENS[tens] + (f"-{_UNITS[units]}" if units else "")


def numeral_value(text: str) -> str:
    """Digits for a spelled numeral below 100; any other text, trimmed and lowercased."""
    words = text.strip().lower().replace("-", " ").split()
    if len(words) == 1 and words[0] in _UNITS:
        return str(_UNITS.index(words[0]))
    if 1 <= len(words) <= 2 and words[0] in _TENS[2:]:
        value = _TENS.index(words[0]) * 10
        if len(words) == 2:
            if words[1] not in _UNITS[1:10]:
                return " ".join(words)
            value += _UNITS.index(words[1])
        return str(value)
    return " ".join(words)


def image_uri(image_id: str) -> str:
    return f"{IMAGE_HOST}/{image_id}.png"


def image_answer(image_id: str) -> int:
    """The value an image encodes, 13..97, so that near misses stay in 11..99."""
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    return 13 + int.from_bytes(digest[:4], "big") % 85


class FakeResponse:
    def __init__(self, status_code: int, body: dict, role: str, retry: bool):
        self.status_code = status_code
        self.text = json.dumps(body)
        self.role = role
        self.retry = retry


class FakeEndpoint:
    """Role-aware replies with per-image solver accuracy, a numeral-aware
    judge, seeded transient 429s, a fixed latency, and request counts."""

    def __init__(self, seed: int, dimension: int, latency_s: float = 0.001):
        self.seed = seed
        self.dimension = dimension
        self.latency_s = latency_s
        self.requests = dict.fromkeys(ROLES, 0)
        self.rate_limited = 0
        self.retries = 0
        self._limited: set[str] = set()
        self._retried: set[str] = set()
        self._lock = threading.Lock()

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    @contextmanager
    def installed(self):
        """Serve every ``requests.post`` call in this process while active."""
        import requests

        original = requests.post
        requests.post = self.post
        try:
            yield self
        finally:
            requests.post = original

    def _unit(self, *parts) -> float:
        key = ":".join(str(p) for p in (self.seed, *parts))
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def post(self, url: str, json: dict, headers=None, timeout=None) -> FakeResponse:
        time.sleep(self.latency_s)
        key = _canonical(json)
        role = "embed" if url.endswith("/embeddings") else _chat_role(json)
        limit = self._unit("429", key) < 1.0 / RATE_LIMIT_EVERY
        with self._lock:
            self.requests[role] += 1
            retry = key in self._limited and key not in self._retried
            if retry:
                self._retried.add(key)
                self.retries += 1
            if limit and key not in self._limited:
                self._limited.add(key)
                self.rate_limited += 1
                return FakeResponse(429, {"error": "rate limited"}, role, retry)
        if role == "embed":
            body = {"data": [{"index": 0, "embedding": self.embedding(json["input"]).tolist()}]}
        else:
            texts = [self._chat_reply(role, json, i) for i in range(json["n"])]
            body = {"choices": [{"index": i, "message": {"role": "assistant", "content": t}}
                                for i, t in enumerate(texts)]}
        return FakeResponse(200, body, role, retry)

    def embedding(self, text: str) -> np.ndarray:
        """Hash-seeded unit vector; the same text always gets the same vector."""
        digest = hashlib.sha256(f"{self.seed}:{text}".encode("utf-8")).digest()
        vec = np.random.default_rng(int.from_bytes(digest[:8], "big")).normal(size=self.dimension)
        return vec / np.linalg.norm(vec)

    def _chat_reply(self, role: str, payload: dict, i: int) -> str:
        key = _canonical(payload)
        prompt, image = _user_message(payload)
        if role == "searcher":
            # The queries of one request are distinct (adjective, noun) pairs,
            # so the active set's size does not swing with the seed.
            category = _CATEGORY_RE.search(prompt).group(1)
            pairs = sorted(range(len(_ADJECTIVES) * len(_NOUNS)),
                           key=lambda j: self._unit("pair", key, j))
            adj, noun = divmod(pairs[i % len(pairs)], len(_NOUNS))
            return (f"<type>{category}</type>\n"
                    f"<query>{_ADJECTIVES[adj]} {category} {_NOUNS[noun]} view</query>")
        image_id = image.rsplit("/", 1)[-1].removesuffix(".png")
        answer = image_answer(image_id)
        if role == "questioner":
            form = _QUESTION_FORMS[int(self._unit("form", key, i) * len(_QUESTION_FORMS))]
            noun = _NOUNS[int(self._unit("qnoun", key, i) * len(_NOUNS))]
            question = form.format(noun=noun, image=image_id)
            return (
                f"<think>Visible Elements: panel {image_id}. Constraints: one value. "
                f"Step-by-Step Solution: the panel resolves to {answer}.</think>\n"
                f"<type>numeric_value</type>\n<question>{question}</question>\n"
                f"<answer>{answer}</answer>"
            )
        if role == "solver":
            # Each image has its own accuracy, so votes split by image. Exactly
            # round(accuracy * n) rollouts of a request are right, which keeps
            # the judge's workload from swinging with the seed. Wrong answers
            # are near misses, so they cluster as real ones do.
            accuracy = 0.45 + 0.5 * self._unit("skill", image_id)
            n = payload["n"]
            ranks = sorted(range(n), key=lambda j: self._unit("rank", key, j))
            value = answer
            if ranks.index(i) >= round(accuracy * n):
                value += _NEAR_MISSES[int(self._unit("wrong", key, i) * len(_NEAR_MISSES))]
            shown = spell(value) if self._unit("spell", key, i) < SPELLED_SHARE else str(value)
            return f"Working through the panel, the value is \\boxed{{{shown}}}."
        gold, predicted = _JUDGE_RE.search(prompt).groups()
        return "correct" if numeral_value(gold) == numeral_value(predicted) else "incorrect"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _user_message(payload: dict) -> tuple[str, str]:
    """(prompt text, image url or "") of the last user message."""
    content = payload["messages"][-1]["content"]
    if isinstance(content, str):
        return content, ""
    text = next(part["text"] for part in content if part["type"] == "text")
    image = next(part["image_url"]["url"] for part in content if part["type"] == "image_url")
    return text, image


def _chat_role(payload: dict) -> str:
    if payload["messages"][0]["role"] == "system":
        return "judge"
    prompt, _ = _user_message(payload)
    if "Target Category:" in prompt:
        return "searcher"
    if "Analysis Phase" in prompt:
        return "questioner"
    return "solver"
