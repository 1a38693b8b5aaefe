import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triplay import orchestrator
from triplay.config import load_config
from triplay.diversity import (
    _bleu,
    _clipped,
    components,
    ngram_table,
    repetition_penalty,
    table_distance,
    text_distance,
    text_repetition_penalty,
    visual_distance_matrix,
)
from triplay.errors import DimensionMismatch, ZeroVector

from conftest import cosine_similarity


def bleu(candidate: str, reference: str) -> float:
    """One direction of text_distance's BLEU, through the private helper; a
    candidate sharing no token with the reference scores 0.0."""
    (len_c, grams_c), (len_r, grams_r) = ngram_table(candidate), ngram_table(reference)
    matches = [_clipped(c, r) for c, r in zip(grams_c, grams_r)]
    return _bleu(len_c, len_r, matches) if matches[0] else 0.0


def reference_sentence_bleu(candidate: str, reference: str) -> float:
    """The directional BLEU text_distance was first written with: both texts
    split and counted anew, each order's clipped matches counted per direction."""

    def ngram_counts(tokens: list[str], n: int) -> Counter:
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    cand = candidate.split()
    ref = reference.split()
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        counts = ngram_counts(cand, n)
        ref_counts = ngram_counts(ref, n)
        total = max(len(cand) - n + 1, 0)
        matched = sum(min(c, ref_counts[g]) for g, c in counts.items())
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += math.log(precision)
    score = math.exp(log_sum / 4)
    if len(cand) < len(ref):
        score *= math.exp(1.0 - len(ref) / len(cand))
    return min(score, 1.0)


@st.composite
def spaced_texts(draw):
    """0-9 tokens from a 4-word alphabet, joined and framed by mixed whitespace."""
    tokens = draw(st.lists(st.sampled_from(["ant", "bee", "cow", "dog"]), max_size=9))
    gaps = st.sampled_from([" ", "  ", "\t", "\n", " \t\n"])
    ends = st.sampled_from(["", " ", "\t\n"])
    inner = [draw(gaps) for _ in tokens[1:]]
    return draw(ends) + "".join(g + t for g, t in zip([""] + inner, tokens)) + draw(ends)


class TestSentenceBleu:
    def test_identical(self):
        assert bleu("a red bar chart", "a red bar chart") == 1.0

    def test_identical_single_token(self):
        assert bleu("chart", "chart") == 1.0

    def test_disjoint_tokens(self):
        # No unigram matches: both directions score exactly 0.
        assert text_distance("alpha beta", "gamma delta") == 1.0

    def test_empty_candidate(self):
        assert text_distance("", "anything") == text_distance("anything", "") == 1.0

    def test_hand_computed_overlap(self):
        # p1=3/4, p2=(1+1)/(3+1), p3=(0+1)/(2+1), p4=(0+1)/(1+1), BP=1:
        # (0.75 * 0.5 * 1/3 * 0.5) ** 0.25 == 0.5
        assert bleu("a red bar chart", "a red line chart") == pytest.approx(0.5, abs=1e-12)

    def test_brevity_penalty(self):
        # All precisions 1, candidate half the reference length: exp(1 - 2).
        assert bleu("a red", "a red bar chart") == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        words = "one two three four five six".split()
        for _ in range(100):
            cand = " ".join(rng.choice(words, size=rng.integers(1, 6)))
            ref = " ".join(rng.choice(words, size=rng.integers(1, 6)))
            assert 0.0 <= bleu(cand, ref) <= 1.0


class TestTextDistance:
    def test_identical_is_zero(self):
        assert text_distance("find the area", "find the area") == 0.0

    def test_disjoint_above_point_eight(self):
        assert text_distance("alpha beta", "gamma delta") > 0.8

    def test_no_tokens_is_one(self):
        # A text with no tokens shares none, even with itself.
        assert text_distance("", "") == 1.0
        assert text_distance(" ", "\t") == 1.0

    @settings(max_examples=300, deadline=None)
    @given(spaced_texts(), spaced_texts())
    def test_symmetric(self, a, b):
        # Bit for bit: the engine's text-pair memo keeps one entry per
        # unordered pair and serves it in both orders.
        assert text_distance(a, b) == text_distance(b, a)

    @settings(max_examples=300, deadline=None)
    @given(spaced_texts(), spaced_texts())
    def test_equals_sentence_bleu_formula(self, a, b):
        expected = 1.0 - 0.5 * (reference_sentence_bleu(a, b) + reference_sentence_bleu(b, a))
        assert text_distance(a, b) == expected

    def test_in_unit_interval(self):
        assert 0.0 <= text_distance("a b", "a b c d") <= 1.0


class TestVisualDistance:
    def test_same_vector(self):
        e = np.array([0.6, 0.8])
        assert visual_distance_matrix([e, e])[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert visual_distance_matrix([[1, 0], [0, 1]])[0, 1] == pytest.approx(1.0)

    def test_antipodal(self):
        assert visual_distance_matrix([[1, 0], [-1, 0]])[0, 1] == pytest.approx(2.0)

    def test_errors_propagate(self):
        with pytest.raises(ZeroVector):
            visual_distance_matrix([[0, 0], [1, 0]])
        with pytest.raises(DimensionMismatch):
            visual_distance_matrix([[1, 0], [1, 0, 0]])


def pairwise_visual_distances(embeddings) -> np.ndarray:
    """Reference matrix: 1 - cosine, one pair at a time."""
    n = len(embeddings)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = 1.0 - cosine_similarity(embeddings[i], embeddings[j])
    return mat


def threshold_components(mat: np.ndarray, tau: float) -> list[int]:
    """Component roots of the graph with an edge wherever mat[i, j] <= tau."""
    return components(len(mat), lambda i, j: mat[i, j] <= tau)


def partition(roots: list[int]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(roots):
        groups.setdefault(root, []).append(i)
    return sorted(groups.values())


@st.composite
def unit_batches(draw):
    """Random unit vectors, some rows repeated, in a shuffled order."""
    dim = draw(st.integers(2, 8))
    distinct = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    vectors = np.random.default_rng(seed).normal(size=(distinct, dim))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=10))
    return [vectors[p] for p in picks]


class TestVisualDistanceMatrix:
    @settings(max_examples=200, deadline=None)
    @given(unit_batches())
    def test_matches_pairwise_reference(self, embeddings):
        mat = visual_distance_matrix(embeddings)
        assert np.abs(mat - pairwise_visual_distances(embeddings)).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(unit_batches())
    def test_exactly_symmetric_zero_diagonal(self, embeddings):
        mat = visual_distance_matrix(embeddings)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(unit_batches(), st.floats(0.0, 2.0))
    def test_same_partition_as_reference(self, embeddings, tau):
        # Distances within 1e-12 of tau could fall either side of it in the
        # two computations; such draws say nothing about the partition.
        reference = pairwise_visual_distances(embeddings)
        off_diagonal = reference[~np.eye(len(embeddings), dtype=bool)]
        assume(np.all(np.abs(off_diagonal - tau) > 1e-9))
        assert partition(threshold_components(visual_distance_matrix(embeddings), tau)) == (
            partition(threshold_components(reference, tau))
        )

    @settings(max_examples=50, deadline=None)
    @given(unit_batches(), st.data())
    def test_zero_row_and_ragged_rows_raise(self, embeddings, data):
        position = data.draw(st.integers(0, len(embeddings)))
        dim = len(embeddings[0])
        with pytest.raises(ZeroVector):
            visual_distance_matrix(embeddings[:position] + [np.zeros(dim)] + embeddings[position:])
        with pytest.raises(DimensionMismatch):
            visual_distance_matrix(embeddings[:position] + [np.ones(dim + 1)] + embeddings[position:])

    def test_rejects_non_stack(self):
        with pytest.raises(DimensionMismatch):
            visual_distance_matrix([1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            visual_distance_matrix(np.ones((2, 2, 2)))


def closure_oracle(mat: np.ndarray, tau: float) -> list[set[int]]:
    n = mat.shape[0]
    adj = mat <= tau
    np.fill_diagonal(adj, True)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if adj[i, k] and adj[k, j]:
                    adj[i, j] = True
    components = []
    seen: set[int] = set()
    for i in range(n):
        if i in seen:
            continue
        comp = {j for j in range(n) if adj[i, j]}
        seen |= comp
        components.append(comp)
    return components


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.uniform(0, 1, size=(n, n))
    mat = (mat + mat.T) / 2
    np.fill_diagonal(mat, 0.0)
    return mat


@st.composite
def grid_matrices(draw):
    """A symmetric matrix with zero diagonal, its distances and tau on a 0.1
    grid, so many pairs sit exactly on the inclusive boundary."""
    n = draw(st.integers(1, 9))
    grid = st.integers(0, 10).map(lambda x: x / 10)
    upper = draw(st.lists(grid, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    mat = np.zeros((n, n))
    mat[np.triu_indices(n, 1)] = upper
    return mat + mat.T, draw(grid)


class TestThresholdCluster:
    def test_all_zero_distances(self):
        mat = np.zeros((4, 4))
        assert threshold_components(mat, 0.1) == [0] * 4

    def test_all_far_apart(self):
        mat = np.full((5, 5), 0.9)
        np.fill_diagonal(mat, 0.0)
        assert threshold_components(mat, 0.1) == list(range(5))

    def test_transitive_linkage(self):
        # 0-1 and 1-2 are close, 0-2 is far: single linkage still merges all.
        mat = np.array(
            [
                [0.0, 0.05, 0.4],
                [0.05, 0.0, 0.05],
                [0.4, 0.05, 0.0],
            ]
        )
        assert threshold_components(mat, 0.1) == [0, 0, 0]

    def test_inclusive_boundary(self):
        mat = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert threshold_components(mat, 0.1) == [0, 0]

    def test_matches_closure_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            tau = float(rng.uniform(0.1, 0.9))
            mat = random_symmetric(rng, n)
            roots = threshold_components(mat, tau)
            assert partition(roots) == sorted(map(sorted, closure_oracle(mat, tau)))

    @settings(max_examples=200, deadline=None)
    @given(grid_matrices())
    def test_transitive_closure_property(self, drawn):
        mat, tau = drawn
        roots = threshold_components(mat, tau)
        sizes = Counter(roots)
        for component in closure_oracle(mat, tau):
            for i in component:
                assert roots[i] == min(component)
                assert sizes[roots[i]] == len(component)
        assert sum(sizes.values()) == len(mat)

    def test_partition_sizes(self):
        rng = np.random.default_rng(5)
        mat = random_symmetric(rng, 10)
        roots = threshold_components(mat, 0.3)
        # Every item's root is its component's smallest index.
        assert all(roots[r] == r <= i for i, r in enumerate(roots))
        assert sum(Counter(roots).values()) == 10


def orthogonal_batch(n: int, texts: list[str]) -> list[tuple[str, np.ndarray]]:
    items = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        items.append((texts[i], e))
    return items


class TestRepetitionPenalty:
    def test_identical_batch(self):
        e = np.array([1.0, 0.0])
        batch = [("same query text", e)] * 4
        assert repetition_penalty(batch, 0.5, 0.1) == [2.0] * 4

    def test_mutually_distant_batch(self):
        texts = ["alpha omicron", "beta sigma", "gamma tau", "delta upsilon"]
        batch = orthogonal_batch(4, texts)
        assert repetition_penalty(batch, 0.5, 0.1) == [0.5] * 4

    def test_singleton_batch(self):
        batch = [("only one", np.array([1.0, 0.0]))]
        assert repetition_penalty(batch, 0.5, 0.1) == [2.0]

    def test_range(self):
        rng = np.random.default_rng(17)
        words = "ant bee cow dog elk fox gnu hen".split()
        for _ in range(20):
            n = int(rng.integers(1, 7))
            items = [
                (
                    " ".join(rng.choice(words, size=3)),
                    rng.normal(size=6),
                )
                for _ in range(n)
            ]
            penalties = repetition_penalty(items, 0.5, 0.1)
            for p in penalties:
                assert 2.0 / n - 1e-12 <= p <= 2.0 + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        words = "ant bee cow dog elk".split()
        items = [
            (" ".join(rng.choice(words, size=3)), rng.normal(size=4))
            for _ in range(6)
        ]
        base = repetition_penalty(items, 0.5, 0.1)
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = repetition_penalty([items[i] for i in perm], 0.5, 0.1)
        for new_pos, old_pos in enumerate(perm):
            assert shuffled[new_pos] == pytest.approx(base[old_pos], abs=1e-12)

    def test_merging_clusters_never_decreases_penalty(self):
        # Raising tau_txt can only merge text clusters, never split them.
        rng = np.random.default_rng(29)
        words = "ant bee cow dog elk fox".split()
        items = [
            (" ".join(rng.choice(words, size=3)), rng.normal(size=4))
            for _ in range(6)
        ]
        low = repetition_penalty(items, 0.3, 0.1)
        high = repetition_penalty(items, 0.9, 0.1)
        assert all(h >= l - 1e-12 for l, h in zip(low, high))

    def test_text_only_penalty(self):
        texts = ["same words here", "same words here", "different tokens entirely"]
        penalties = text_repetition_penalty(texts, 0.5)
        assert penalties[0] == pytest.approx(2 / 3)
        assert penalties[1] == pytest.approx(2 / 3)
        assert penalties[2] == pytest.approx(1 / 3)

    @settings(max_examples=200, deadline=None)
    @given(grid_matrices())
    def test_text_penalty_is_closure_share(self, drawn):
        # Texts are labels into the drawn matrix, so the penalty's clusters
        # can be checked against the closure oracle.
        mat, tau = drawn
        n = len(mat)
        labels = [str(i) for i in range(n)]
        penalties = text_repetition_penalty(
            labels, tau, distance=lambda a, b: mat[int(a), int(b)]
        )
        for component in closure_oracle(mat, tau):
            for i in component:
                assert penalties[i] == len(component) / n

    def test_joined_pairs_are_not_asked(self):
        # Items 0-1 and 0-2 are linked; 1-2 is already joined, so it is skipped.
        asked = []

        def counting(a, b):
            asked.append((a, b))
            return text_distance(a, b)

        assert text_repetition_penalty(["same words"] * 3, 0.5, distance=counting) == [1.0] * 3
        assert len(asked) == 2
        batch = [("same words", np.array([1.0, 0.0]))] * 3
        assert repetition_penalty(batch, 0.5, 0.1, distance=counting) == [2.0] * 3
        assert len(asked) == 4


def small_memo_engine(bound: int):
    """A small synthetic engine whose text-table and text-pair memos each hold
    at most `bound` entries."""
    with mock.patch.object(orchestrator, "_TEXT_TABLE_MEMO_SIZE", bound), mock.patch.object(
        orchestrator, "_TEXT_PAIR_MEMO_SIZE", bound
    ):
        return orchestrator.build_engine(load_config(None, {"world": {"count": 40, "dim": 8}}))


class TestMemoizedTextDistance:
    """The distance the engine passes to its penalties: text_distance behind
    its text-pair memo, keyed by the sorted pair, over its text-table memo."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matrix_equals_unmemoized(self, data):
        # One small memo across three batches: later batches meet pairs in
        # both orders, texts repeat, and entries are evicted.
        words = st.lists(st.sampled_from("ant bee cow dog elk".split()), max_size=6)
        texts = data.draw(st.lists(words.map(" ".join), min_size=1, max_size=10))
        shuffled = data.draw(st.permutations(texts))
        engine = small_memo_engine(8)
        distance = engine._pair_distance

        def checked(qi, qj):
            d = distance(qi, qj)
            assert d == text_distance(qi, qj)
            return d

        for batch in (texts, shuffled, texts + shuffled):
            for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert text_repetition_penalty(batch, tau, checked) == (
                    text_repetition_penalty(batch, tau)
                )
        assert len(engine._text_distance) <= 8
        assert len(engine._ngram_tables) <= 8

    def test_one_entry_per_unordered_pair(self):
        engine = small_memo_engine(16)
        scored = []

        def counted(a, b):
            scored.append((a, b))
            return table_distance(a, b)

        distance = engine._pair_distance
        with mock.patch.object(orchestrator, "table_distance", counted):
            assert distance("a b", "c d") == distance("c d", "a b") == text_distance("a b", "c d")
        assert scored == [(ngram_table("a b"), ngram_table("c d"))]
        assert len(engine._text_distance) == 1

    def test_each_text_tokenized_once(self):
        built = []

        def counted(text):
            built.append(text)
            return ngram_table(text)

        with mock.patch.object(orchestrator, "ngram_table", counted):
            engine = small_memo_engine(16)
        texts = ["a b", "c d", "a b c", "c d"]
        for batch in (texts, texts[::-1]):
            text_repetition_penalty(batch, 0.0, engine._pair_distance)
        assert sorted(built) == sorted(set(texts))
        assert len(engine._ngram_tables) == 3
