"""Batch diversity control: smoothed sentence BLEU, dual-modality distances,
threshold clustering, and the neighborhood-density repetition penalty.

Text distance is 1 minus symmetrized BLEU; visual distance is 1 minus cosine,
computed for a whole batch as one product of its unit embeddings. A batch
is clustered per modality by components, a union-find, under the predicate
"distance <= tau" (single linkage, inclusive boundary). Each item is
penalized by the relative size of its text and visual clusters. components
does not ask about a pair already joined, so a batch of near-duplicates
needs fewer text distances than pairs.

BLEU reads a text only through its ngram_table: its token count and its
n-gram Counters of orders 1..4. table_distance scores a pair from two tables,
and each order's clipped match count, the same in both BLEU directions, is
counted once for both. text_distance(qi, qj) builds both tables and calls it.

The penalties take the text distance as an argument. A caller that scores the
same texts batch after batch passes a memoized equal of text_distance, as the
Engine does: it keeps each text's table and each pair's distance.
text_distance is symmetric to the bit, so one entry per unordered pair serves
both orders.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import DimensionMismatch, ZeroVector

_MAX_ORDER = 4


def ngram_table(text: str) -> tuple[int, tuple[Counter, ...]]:
    """(token count, n-gram Counters of orders 1..4) of a text's whitespace
    tokens: all that BLEU reads of a text, built once per text."""
    tokens = text.split()
    return len(tokens), tuple(
        Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
        for n in range(1, _MAX_ORDER + 1)
    )


def _clipped(counts: Counter, other: Counter) -> int:
    """Clipped match count sum(min(counts[g], other[g])), the same either way round."""
    return sum(min(counts[g], other[g]) for g in counts.keys() & other.keys())


def _bleu(length: int, ref_length: int, matches: list[int]) -> float:
    """Sentence BLEU of a candidate of length tokens against a reference of
    ref_length tokens, from their clipped match counts of orders 1..4, with
    uniform weights and the standard brevity penalty. matches[0] must be
    positive: a candidate that shares no token with its reference scores 0.0.

    Precisions of order >= 2 get add-one smoothing so short strings stay
    finite; unigram precision is left exact, so token-identical strings score
    exactly 1.0.
    """
    log_sum = math.log(matches[0] / length)
    for n in range(2, _MAX_ORDER + 1):
        total = max(length - n + 1, 0)
        log_sum += math.log((matches[n - 1] + 1) / (total + 1))
    bleu = math.exp(log_sum / _MAX_ORDER)
    if length < ref_length:
        bleu *= math.exp(1.0 - ref_length / length)
    return min(bleu, 1.0)


def table_distance(a: tuple[int, tuple[Counter, ...]], b: tuple[int, tuple[Counter, ...]]) -> float:
    """text_distance of the two texts whose ngram_tables are a and b. Each
    order's clipped match count is computed once and read by both directions."""
    (len_a, grams_a), (len_b, grams_b) = a, b
    unigrams = _clipped(grams_a[0], grams_b[0])
    if not unigrams:
        # Both directions score 0.0, as they do when either text has no tokens.
        return 1.0
    matches = [unigrams] + [_clipped(ca, cb) for ca, cb in zip(grams_a[1:], grams_b[1:])]
    return 1.0 - 0.5 * (_bleu(len_a, len_b, matches) + _bleu(len_b, len_a, matches))


def text_distance(qi: str, qj: str) -> float:
    """1 - mean of both directional sentence BLEU scores, symmetric to the bit.

    It is 0.0 for token-identical texts that have tokens, and 1.0 for texts
    that share no token. A text with no tokens shares none, so
    text_distance("", "") is 1.0; the engine never scores one, as stage 1
    drops an empty query and every question must be nonempty.
    """
    return table_distance(ngram_table(qi), ngram_table(qj))


def visual_distance_matrix(embeddings) -> np.ndarray:
    """1 - cosine similarity of every pair, from one product of the unit rows.

    The strict upper triangle is mirrored, so the matrix is exactly symmetric
    with a zero diagonal: 0 for parallel, 1 for orthogonal, 2 for antipodal.
    """
    try:
        mat = np.asarray(embeddings, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch("embeddings differ in dimension") from exc
    if mat.ndim != 2:
        raise DimensionMismatch(f"embeddings must stack to 2-D, got {mat.shape}")
    norms = np.linalg.norm(mat, axis=1)
    if not norms.all():
        raise ZeroVector("cosine similarity is undefined for the zero vector")
    unit = mat / norms[:, None]
    upper = np.triu(1.0 - np.clip(unit @ unit.T, -1.0, 1.0), 1)
    return upper + upper.T


def components(n: int, linked) -> list[int]:
    """Connected components of items 0..n-1 under the symmetric predicate
    linked(i, j); each item's id is the smallest index in its component.

    Pairs i < j are visited in order, and linked is not asked about a pair
    whose items are already joined.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = find(i), find(j)
            if ri != rj and linked(i, j):
                # The smaller root wins, so every root is its component's
                # smallest index.
                parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def _cluster_shares(n: int, linked) -> list[float]:
    """Each item's component size under linked, divided by n."""
    roots = components(n, linked)
    sizes = Counter(roots)
    return [sizes[r] / n for r in roots]


def repetition_penalty(
    items: list[tuple[str, np.ndarray]], tau_txt: float, tau_vis: float, distance=text_distance
) -> list[float]:
    """Per-item density penalty of a batch of (query text, image embedding)
    pairs: text-cluster share plus visual-cluster share.

    Each term lies in [1/n, 1], so the total lies in [2/n, 2]. distance is the
    text distance, text_distance or a memoized equal of it.
    """
    if not items:
        raise ValueError("batch must contain at least one item")
    texts = [t for t, _ in items]
    vis = visual_distance_matrix([e for _, e in items]).tolist()
    n = len(items)
    txt_shares = _cluster_shares(n, lambda i, j: distance(texts[i], texts[j]) <= tau_txt)
    vis_shares = _cluster_shares(n, lambda i, j: vis[i][j] <= tau_vis)
    return [t + v for t, v in zip(txt_shares, vis_shares)]


def text_repetition_penalty(
    texts: list[str], tau_txt: float, distance=text_distance
) -> list[float]:
    """Text-only variant used for question batches: cluster share in [1/n, 1]."""
    if not texts:
        raise ValueError("need at least one text")
    return _cluster_shares(len(texts), lambda i, j: distance(texts[i], texts[j]) <= tau_txt)
