"""Batch diversity control: smoothed sentence BLEU, dual-modality distances,
threshold clustering, and the neighborhood-density repetition penalty.

Text distance is 1 minus symmetrized BLEU; visual distance is 1 minus cosine,
computed for a whole batch as one product of its unit embeddings. A batch
is clustered per modality by components, a union-find, under the predicate
"distance <= tau" (single linkage, inclusive boundary). Each item is
penalized by the relative size of its text and visual clusters. components
does not ask about a pair already joined, so a batch of near-duplicates
needs fewer text distances than pairs.

The penalties take the text distance as an argument. A caller that scores the
same texts batch after batch passes a memoized equal of text_distance, as the
Engine does: text_distance is symmetric to the bit, so one entry per
unordered pair serves both orders.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import DimensionMismatch, ZeroVector

_MAX_ORDER = 4


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(candidate: str, reference: str) -> float:
    """Sentence-level BLEU on whitespace tokens, n-gram orders 1..4 with
    uniform weights and the standard brevity penalty.

    Precisions of order >= 2 get add-one smoothing so short strings stay
    finite; unigram precision is left exact, so token-disjoint strings score
    0.0 and token-identical strings score exactly 1.0.
    """
    cand = candidate.split()
    ref = reference.split()
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, _MAX_ORDER + 1):
        counts = _ngram_counts(cand, n)
        ref_counts = _ngram_counts(ref, n)
        total = max(len(cand) - n + 1, 0)
        matched = sum(min(c, ref_counts[g]) for g, c in counts.items())
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += math.log(precision)
    bleu = math.exp(log_sum / _MAX_ORDER)
    if len(cand) < len(ref):
        bleu *= math.exp(1.0 - len(ref) / len(cand))
    return min(bleu, 1.0)


def text_distance(qi: str, qj: str) -> float:
    """1 - mean of both directional BLEU scores; symmetric, 0 iff token-identical."""
    return 1.0 - 0.5 * (sentence_bleu(qi, qj) + sentence_bleu(qj, qi))


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
