"""Deterministic offline stand-in environment: a synthetic image corpus whose
embeddings encode (category, difficulty), a parametric solver whose success
probability follows a logistic skill-vs-difficulty law, and query templates
that let a toy search policy target difficulty bands through real retrieval.

Everything is seeded, so the full optimization loop can be validated at desk
scale with analytic ground truth. The world is drawn per image in seed order
and assembled in batched passes over one embedding matrix, bit-identical to
building it one image at a time.

The world keeps its draw as arrays: ids, the embedding matrix and the
difficulties. Its index builds an image's ImageRecord the first time it
returns that image, so set-up builds none; a default run reads a few hundred
of its 10,000 images. gen_corpus builds every record up front through the
same builder, for `triplay synth gen`.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .embedding_index import EmbeddingIndex, ImageRecord

# Angular frequencies of the difficulty curve. Several incommensurate
# frequencies keep nearby difficulties close in embedding space while pushing
# adjacent retrieval bands past the visual clustering threshold.
FREQUENCIES = (2.0, 5.0, 9.0, 16.0)

# The world's shape: query-template difficulty bands per category, and the
# scale of the Gaussian noise added to each image embedding before it is
# renormalized.
BANDS_PER_CATEGORY = 16
EMBEDDING_NOISE = 0.02

# Distinct (adjective, noun) word pairs per difficulty band; templates of the
# same category share only the category token and "view", which keeps their
# pairwise text distance above the default clustering threshold.
_BAND_TERMS = (
    ("sparse", "outline"),
    ("faint", "sketch"),
    ("pale", "overview"),
    ("simple", "layout"),
    ("plain", "arrangement"),
    ("tidy", "composition"),
    ("busy", "pattern"),
    ("layered", "structure"),
    ("dense", "lattice"),
    ("tangled", "network"),
    ("intricate", "mosaic"),
    ("crowded", "montage"),
    ("elaborate", "labyrinth"),
    ("ornate", "tapestry"),
    ("chaotic", "jumble"),
    ("saturated", "collage"),
)

# Question phrasings for the toy questioner. The marker token shifts the
# effective difficulty the solver experiences, so question choice genuinely
# modulates uncertainty.
QUESTION_FORMS = (
    ("glance", -0.35, "At a glance, which headline value does the figure report?"),
    ("skim", -0.25, "Skim the figure: what leading quantity is displayed?"),
    ("plainly", -0.15, "Read plainly, what primary value does the figure give?"),
    ("directly", -0.05, "State directly the measurement encoded by the figure."),
    ("carefully", 0.05, "Inspect carefully: what quantity does the figure yield?"),
    ("derive", 0.15, "Derive the implied value from the relationships in the figure."),
    ("untangle", 0.25, "Untangle the intricate dependencies and compute the resulting value."),
    ("exhaustive", 0.35, "Perform an exhaustive multi-step analysis and report the final value."),
)

_WORD_RE = re.compile(r"[a-z]+")


def question_delta(question: str) -> float:
    """Difficulty shift encoded by the question's marker word (0.0 if none)."""
    tokens = set(_WORD_RE.findall(question.lower()))
    for marker, delta, _ in QUESTION_FORMS:
        if marker in tokens:
            return delta
    return 0.0


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


# The parametric solver: a rollout is correct with probability
# logistic((skill - difficulty) / SOLVER_TEMPERATURE), from a skill that
# starts at INITIAL_SKILL.
INITIAL_SKILL = 0.5
SOLVER_TEMPERATURE = 0.15


def solve_probability(skill: float, difficulty: float) -> float:
    return logistic((skill - difficulty) / SOLVER_TEMPERATURE)


def canonical_answer(image_id: str) -> str:
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    return str(11 + int.from_bytes(digest[:4], "big") % 89)


def _curve_blocks(dim: int, ncat: int) -> int:
    """Coordinate pairs per category: categories occupy disjoint blocks of
    2 * blocks coordinates, so cross-category cosine similarity is exactly zero."""
    blocks = dim // (2 * ncat)
    if blocks < 1:
        raise ConfigError(f"dim {dim} cannot host {ncat} categories (need >= 2 dims each)")
    return blocks


def _add_curve(rows: np.ndarray, difficulties: np.ndarray, slot: int, blocks: int) -> None:
    """Add the difficulty curve of the category in block slot to each row, in
    place: (cos, sin) of freq * difficulty per block, over sqrt(blocks).
    math.cos/math.sin, because np.cos/np.sin can differ in the last bit."""
    scale = math.sqrt(blocks)
    for b in range(blocks):
        freq = FREQUENCIES[b % len(FREQUENCIES)] * (1 + b // len(FREQUENCIES))
        angles = (difficulties * freq).tolist()
        col = 2 * (slot * blocks + b)
        rows[:, col] += np.fromiter(map(math.cos, angles), float, len(angles)) / scale
        rows[:, col + 1] += np.fromiter(map(math.sin, angles), float, len(angles)) / scale


@dataclass(frozen=True)
class _Images:
    """One draw of the world as arrays: image i is ids[i], with row i of
    embeddings and difficulties[i]. record(i) builds its ImageRecord."""

    categories: list[str]
    ids: list[str]
    embeddings: np.ndarray
    difficulties: np.ndarray

    def record(self, i: int) -> ImageRecord:
        image_id = self.ids[i]
        return ImageRecord(
            id=image_id,
            embedding=self.embeddings[i],
            category=self.categories[i % len(self.categories)],
            uri=f"synth://{image_id}",
            source="synthetic",
            meta={
                "difficulty": float(self.difficulties[i]),
                "answer": canonical_answer(image_id),
            },
        )


def _draw(
    seed: int, count: int, dim: int, categories: list[str], noise: float = EMBEDDING_NOISE
) -> _Images:
    """The world's seeded draw: uniform difficulties, embeddings on the
    category's difficulty curve plus small noise, renormalized to unit length.

    Draws are per image in seed order (a uniform, then dim normals): numpy's
    normal sampler rejects and redraws, so one batched draw would change the
    stream. They are taken as random() and standard_normal(), the same values
    that uniform() and normal() return but for the sign of a zero normal,
    which the += 0.0 pass clears. The rest is in-place passes over one
    (count, dim) matrix, whose rows the records' embeddings view.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if dim < 4:
        raise ConfigError(f"dim must be >= 4, got {dim}")
    ncat = len(categories)
    blocks = _curve_blocks(dim, ncat)
    rng = np.random.default_rng(seed)
    difficulties = np.empty(count)
    vecs = np.empty((count, dim))
    for i in range(count):
        difficulties[i] = rng.random()
        rng.standard_normal(out=vecs[i])
    vecs *= noise
    # The curve is +0.0 off its block, and +0.0 + -0.0 is +0.0: a noise term
    # of -0.0 must read +0.0 wherever no curve is added to it.
    vecs += 0.0
    for slot in range(ncat):
        _add_curve(vecs[slot::ncat], difficulties[slot::ncat], slot, blocks)
    # math.sqrt(row.dot(row)) is exactly np.linalg.norm of a 1-D row.
    vecs /= np.array([math.sqrt(row.dot(row)) for row in vecs])[:, None]
    ids = [f"{categories[i % ncat]}-{i:06d}" for i in range(count)]
    return _Images(list(categories), ids, vecs, difficulties)


def gen_corpus(
    seed: int, count: int, dim: int, categories: list[str], noise: float = EMBEDDING_NOISE
) -> list[ImageRecord]:
    """Every image of the world's draw as a record, in draw order: what
    `triplay synth gen` writes. Each record's meta holds its image's
    difficulty and canonical answer. SyntheticWorld.generate makes the same
    draw and builds a record only when its index first returns it, through
    the same builder, so both give the same records."""
    images = _draw(seed, count, dim, categories, noise)
    return [images.record(i) for i in range(count)]


@dataclass(frozen=True)
class QueryTemplate:
    index: int
    category: str
    difficulty: float
    text: str
    embedding: np.ndarray = field(repr=False)


class SyntheticWorld:
    """Immutable world: the flat index over its images, and the query-template
    table. It is also the engine's query embedder: embed is embed_query."""

    def __init__(self, index: EmbeddingIndex, categories: list[str]):
        self.categories = list(categories)
        self.dimension = dim = index.dimension
        self.index = index
        blocks = _curve_blocks(dim, len(self.categories))
        difficulties = [(band + 0.5) / BANDS_PER_CATEGORY for band in range(BANDS_PER_CATEGORY)]
        embeddings = np.zeros((len(self.categories), BANDS_PER_CATEGORY, dim))
        self.templates: list[QueryTemplate] = []
        for slot, category in enumerate(self.categories):
            _add_curve(embeddings[slot], np.array(difficulties), slot, blocks)
            for band, difficulty in enumerate(difficulties):
                adj, noun = _BAND_TERMS[band % len(_BAND_TERMS)]
                suffix = "" if band < len(_BAND_TERMS) else f" {band // len(_BAND_TERMS)}"
                self.templates.append(
                    QueryTemplate(
                        index=len(self.templates),
                        category=category,
                        difficulty=difficulty,
                        text=f"{adj} {category} {noun} view{suffix}",
                        embedding=embeddings[slot, band],
                    )
                )
        self._by_text = {t.text: t for t in self.templates}

    @classmethod
    def generate(cls, seed: int, count: int, dim: int, categories: list[str]) -> "SyntheticWorld":
        images = _draw(seed, count, dim, categories)
        return cls(EmbeddingIndex(images), images.categories)

    def template_indices(self, category: str) -> list[int]:
        return [t.index for t in self.templates if t.category == category]

    def embed_query(self, text: str) -> np.ndarray:
        """Template texts map to their band direction; unknown text falls back
        to a hash-seeded unit vector so the pipeline never stalls."""
        template = self._by_text.get(text.strip())
        if template is not None:
            return template.embedding
        digest = hashlib.sha256(text.strip().encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vec = rng.normal(size=self.dimension)
        return vec / np.linalg.norm(vec)

    embed = embed_query


def synthetic_solve(
    skill: float,
    image: ImageRecord,
    rng: np.random.Generator,
    delta: float = 0.0,
) -> str:
    """One boxed rollout answer: the canonical answer with probability p, else
    a seeded distractor from the same answer pool."""
    canonical = image.meta["answer"]
    p = solve_probability(skill, image.meta["difficulty"] + delta)
    if rng.random() < p:
        answer = canonical
    else:
        while True:
            answer = str(int(rng.integers(11, 100)))
            if answer != canonical:
                break
    return f"Reading the figure, the value resolves to \\boxed{{{answer}}}."

