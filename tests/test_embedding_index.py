import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplay import embedding_index
from triplay.embedding_index import (
    EmbeddingIndex,
    ImageRecord,
    IndexManifest,
    load_manifest,
    manifest_checksum,
    save_manifest,
)
from triplay.errors import (
    DimensionMismatch,
    EmptyIndex,
    ManifestError,
    ZeroVector,
)

from conftest import cosine_similarity


def make_index(vectors: dict[str, list[float]]) -> EmbeddingIndex:
    records = [
        ImageRecord(id=k, embedding=np.asarray(v, dtype=float), category="c")
        for k, v in vectors.items()
    ]
    dim = len(next(iter(vectors.values())))
    return EmbeddingIndex(IndexManifest(dimension=dim, records=records))


class TestCosineSimilarity:
    """The pairwise oracle that brute_force and the world tests score with."""

    def test_identical_unit_vectors(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_hand_computed(self):
        # dot=1, |a|=sqrt(2), |b|=1
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(
            0.7071067811865475, abs=1e-9
        )

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 5))
            assert cosine_similarity(a, b) == pytest.approx(
                cosine_similarity(b, a), abs=1e-12
            )

    def test_self_similarity_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=8)
            assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-9)
            s = float(rng.uniform(0.1, 10))
            assert cosine_similarity(a, s * a) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0, 0], [1, 0])


class TestRetrieve:
    def test_exact_match_dominates(self):
        index = make_index({"A": [1, 0], "B": [0, 1]})
        (rec, score), = index.retrieve([1, 0], 1)
        assert rec.id == "A"
        assert score == pytest.approx(1.0)

    def test_similarity_ordering(self):
        index = make_index({"A": [1, 0], "B": [0, 1]})
        results = index.retrieve([0.6, 0.8], 2)
        assert [r.id for r, _ in results] == ["B", "A"]
        assert results[0][1] == pytest.approx(0.8)
        assert results[1][1] == pytest.approx(0.6)

    def test_k_larger_than_corpus(self):
        index = make_index({"A": [1, 0], "B": [0, 1], "C": [1, 1]})
        results = index.retrieve([1, 0], 10)
        assert len(results) == 3
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_id(self):
        index = make_index({"B": [1, 0], "A": [1, 0], "C": [0, 1]})
        results = index.retrieve([1, 0], 2)
        assert [r.id for r, _ in results] == ["A", "B"]

    def test_empty_index(self):
        index = EmbeddingIndex(IndexManifest(dimension=2, records=[]))
        with pytest.raises(EmptyIndex):
            index.retrieve([1, 0], 1)

    def test_query_dimension_mismatch(self):
        index = make_index({"A": [1, 0]})
        with pytest.raises(DimensionMismatch):
            index.retrieve([1, 0, 0], 1)

    def test_zero_query(self):
        index = make_index({"A": [1, 0]})
        with pytest.raises(ZeroVector):
            index.retrieve([0, 0], 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=("nan", "inf", "-inf"))
    def test_non_finite_query(self, bad):
        # Unchecked, a NaN query retrieved r0 and r1 with score NaN.
        index = make_index({f"r{i}": np.eye(4)[i] for i in range(4)})
        with pytest.raises(ZeroVector, match=r"^query: embedding norm is (nan|inf), not finite$"):
            index.retrieve([bad, 0, 0, 1], 2)
        with pytest.raises(ZeroVector):
            index.retrieve_batch([[1, 0, 0, 0], [bad, 0, 0, 1]], 2)


def brute_force(index: EmbeddingIndex, query, k: int):
    scored = []
    for rec in index.records:
        scored.append((rec.id, cosine_similarity(query, rec.embedding)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


class TestRetrieveOracle:
    @pytest.mark.parametrize("size", [10, 100, 1000])
    def test_matches_brute_force(self, size):
        rng = np.random.default_rng(size)
        ids = [f"img{i:05d}" for i in range(size)]
        rng.shuffle(ids)
        vectors = {ids[i]: rng.normal(size=16) for i in range(size)}
        index = make_index(vectors)
        for _ in range(5):
            query = rng.normal(size=16)
            for k in (1, 5, min(size, 50)):
                got = index.retrieve(query, k)
                expected = brute_force(index, query, k)
                assert [r.id for r, _ in got] == [i for i, _ in expected]
                for (_, s_got), (_, s_exp) in zip(got, expected):
                    assert s_got == pytest.approx(s_exp, abs=1e-9)

    def test_full_sort_is_permutation(self):
        rng = np.random.default_rng(9)
        vectors = {f"v{i}": rng.normal(size=8) for i in range(64)}
        index = make_index(vectors)
        results = index.retrieve(rng.normal(size=8), 64)
        assert sorted(r.id for r, _ in results) == sorted(vectors)
        scores = [s for _, s in results]
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        vectors = {f"v{i}": rng.normal(size=8) for i in range(200)}
        index = make_index(vectors)
        queries = [rng.normal(size=8) for _ in range(7)]
        batched = index.retrieve_batch(queries, 5, chunk=3)
        for query, ranked in zip(queries, batched):
            single = index.retrieve(query, 5)
            assert [r.id for r, _ in ranked] == [r.id for r, _ in single]


# Small-integer vectors of squared norm 1, 4 or 16: normalising them is exact,
# so every cosine score is exact too, and scores tie heavily.
_EXACT_VECTOR = st.one_of(
    st.tuples(st.integers(0, 3), st.sampled_from([-2, -1, 1, 2])).map(
        lambda t: [t[1] if j == t[0] else 0 for j in range(4)]
    ),
    st.tuples(
        st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4),
        st.sampled_from([1, 2]),
    ).map(lambda t: [sign * t[1] for sign in t[0]]),
)


def exact_cosine(a, b) -> float:
    norms = math.isqrt(sum(x * x for x in a)) * math.isqrt(sum(y * y for y in b))
    return sum(x * y for x, y in zip(a, b)) / norms


@st.composite
def tied_retrieval_cases(draw):
    n = draw(st.integers(1, 24))
    vectors = draw(st.lists(_EXACT_VECTOR, min_size=n, max_size=n))
    ids = draw(st.permutations([f"r{i:02d}" for i in range(n)]))
    queries = draw(st.lists(_EXACT_VECTOR, min_size=1, max_size=7))
    k = draw(st.integers(1, n + 2))
    chunk = draw(st.integers(1, len(queries) + 1))
    return dict(zip(ids, vectors)), queries, k, chunk


class TestRetrieveTieBreakProperty:
    @settings(max_examples=200, deadline=None)
    @given(tied_retrieval_cases())
    def test_matches_sorted_oracle(self, case):
        vectors, queries, k, chunk = case
        index = make_index(vectors)
        ids = sorted(vectors)
        batched = index.retrieve_batch(queries, k, chunk=chunk)
        assert len(batched) == len(queries)
        for query, ranked in zip(queries, batched):
            score = [exact_cosine(vectors[i], query) for i in ids]
            order = sorted(range(len(ids)), key=lambda i: (-score[i], ids[i]))
            want = [(ids[i], score[i]) for i in order[:k]]
            assert [(r.id, s) for r, s in index.retrieve(query, k)] == want
            assert [(r.id, s) for r, s in ranked] == want


# Float vectors that normalize: a norm in (0, inf).
_FLOAT_VECTOR = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=6, max_size=6
).filter(lambda v: 0.0 < np.linalg.norm(v) < np.inf)


class TestRetrievePrefixProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_FLOAT_VECTOR, min_size=1, max_size=30),
        _FLOAT_VECTOR,
        st.integers(1, 32),
        st.integers(1, 32),
    )
    def test_smaller_k_is_a_prefix_bit_for_bit(self, vectors, query, k, k2):
        # The engine memoizes a query's top_k and reads its top-1 from it.
        k, k2 = sorted((k, k2))
        index = make_index({f"r{i:02d}": v for i, v in enumerate(vectors)})
        short, long = (
            [(r.id, score.hex()) for r, score in index.retrieve(query, n)] for n in (k, k2)
        )
        assert short == long[:k]


class TestManifest:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            ImageRecord(
                id=f"r{i}",
                embedding=rng.normal(size=4),
                category="charts",
                uri=f"synth://r{i}",
                source="synthetic",
                meta={"difficulty": 0.25},
            )
            for i in range(5)
        ]
        manifest = IndexManifest(dimension=4, records=records)
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.dimension == 4
        assert [r.id for r in loaded.records] == [f"r{i}" for i in range(5)]
        assert loaded.records[0].meta == {"difficulty": 0.25}
        np.testing.assert_allclose(
            loaded.records[2].embedding, records[2].embedding
        )

    def saved(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            ImageRecord(id=f"r{i}", embedding=rng.normal(size=3), category="c",
                        meta={"difficulty": i / 4} if i % 2 else {})
            for i in (3, 0, 2, 1)
        ]
        path = tmp_path / "m.jsonl"
        save_manifest(IndexManifest(dimension=3, records=records), path)
        return path, manifest_checksum(records)

    def test_saved_manifest_verifies_without_reserializing(self, tmp_path, monkeypatch):
        path, checksum = self.saved(tmp_path)

        def reserialized(records):
            raise AssertionError("a saved manifest was re-serialized to verify it")

        monkeypatch.setattr(embedding_index, "manifest_checksum", reserialized)
        assert load_manifest(path).checksum == checksum

    def test_reformatted_manifest_verifies_by_reserializing(self, tmp_path):
        # Spaced separators and reversed record order: the lines as read miss
        # the header's checksum, but the records it covers are the same.
        path, checksum = self.saved(tmp_path)
        header, *lines = path.read_text().splitlines()
        lines = [json.dumps(json.loads(line)) for line in reversed(lines)]
        path.write_text("\n".join([header] + lines) + "\n")
        loaded = load_manifest(path)
        assert loaded.checksum == checksum
        assert [r.id for r in loaded.records] == ["r3", "r2", "r1", "r0"]

    def test_changed_digit_rejected(self, tmp_path):
        path, _ = self.saved(tmp_path)
        text = path.read_text()
        at = re.compile(r"\d").search(text, text.index('"embedding":[')).start()
        path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :])
        with pytest.raises(ManifestError, match="checksum mismatch"):
            load_manifest(path)

    def test_header_first_line(self, tmp_path):
        records = [ImageRecord(id="a", embedding=[1.0, 0.0], category="c")]
        path = tmp_path / "m.jsonl"
        save_manifest(IndexManifest(dimension=2, records=records), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dimension"] == 2
        assert header["count"] == 1

    def test_corrupted_checksum_rejected(self, tmp_path):
        records = [ImageRecord(id="a", embedding=[1.0, 0.0], category="c")]
        path = tmp_path / "m.jsonl"
        save_manifest(IndexManifest(dimension=2, records=records), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"category":"c"', '"category":"x"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "b", "embedding": [0.0, 1.0]', "not valid JSON"),
            ('{"embedding": [0.0, 1.0]}', "a record needs a string id and an embedding"),
            ('{"id": 7, "embedding": [0.0, 1.0]}', "a record needs a string id and an embedding"),
            ('{"id": "b"}', "a record needs a string id and an embedding"),
            ('{"id": "b", "embedding": [0.0, "1"]}', "the embedding is not a list of numbers"),
            ('{"id": "b", "embedding": [true, 1.0]}', "the embedding is not a list of numbers"),
        ],
        ids=(
            "not_json", "no_id", "int_id", "no_embedding", "string_in_embedding",
            "bool_in_embedding",
        ),
    )
    def test_malformed_record_line_names_file_and_line(self, tmp_path, line, message):
        # Unchecked, these ended in a raw JSONDecodeError, KeyError or
        # ValueError. Line numbers count blank lines.
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"count":2,"dimension":2}\n{"id":"a","embedding":[1.0,0.0]}\n\n' + line + "\n"
        )
        with pytest.raises(ManifestError, match=re.escape(f"{path}:4: {message}")):
            load_manifest(path)

    @pytest.mark.parametrize(
        "header",
        [
            '{"count": 1, "dimension": 2',
            '{"count": 1, "dimension": "2"}',
            "[1, 2]",
            '{"count": 1, "dimension": 0}',
            '{"count": 1, "dimension": -1}',
        ],
        ids=("not_json", "string_dimension", "not_an_object", "zero_dimension", "negative_dimension"),
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.jsonl"
        path.write_text(header + '\n{"id":"a","embedding":[1.0,0.0]}\n')
        with pytest.raises(ManifestError, match=re.escape(str(path))):
            load_manifest(path)

    def test_duplicate_ids_rejected(self):
        records = [
            ImageRecord(id="a", embedding=[1.0, 0.0], category="c"),
            ImageRecord(id="a", embedding=[0.0, 1.0], category="c"),
        ]
        with pytest.raises(ManifestError):
            EmbeddingIndex(IndexManifest(dimension=2, records=records))

    def test_zero_embedding_rejected(self):
        records = [ImageRecord(id="a", embedding=[0.0, 0.0], category="c")]
        with pytest.raises(ZeroVector):
            EmbeddingIndex(IndexManifest(dimension=2, records=records))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=("nan", "inf"))
    def test_non_finite_embedding_rejected(self, bad):
        # Unchecked, a record [nan, 1.0] was accepted into the index.
        records = [
            ImageRecord(id="a", embedding=[1.0, 0.0], category="c"),
            ImageRecord(id="b", embedding=[bad, 1.0], category="c"),
        ]
        with pytest.raises(ZeroVector, match=rf"^record b: embedding norm is {bad}, not finite$"):
            EmbeddingIndex(IndexManifest(dimension=2, records=records))

    def test_first_zero_record_in_id_order_is_named(self):
        records = [
            ImageRecord(id="m", embedding=[1.0, 0.0], category="c"),
            ImageRecord(id="z", embedding=[0.0, 0.0], category="c"),
            ImageRecord(id="b", embedding=[0.0, 0.0], category="c"),
            ImageRecord(id="a", embedding=[0.0, 2.0], category="c"),
        ]
        with pytest.raises(ZeroVector, match=r"^record b: all-zero embedding$"):
            EmbeddingIndex(IndexManifest(dimension=2, records=records))

    def test_wrong_dimension_rejected(self):
        records = [ImageRecord(id="a", embedding=[1.0, 0.0, 0.0], category="c")]
        with pytest.raises(DimensionMismatch):
            EmbeddingIndex(IndexManifest(dimension=2, records=records))


class ArrayCorpus:
    """LazyRecords over plain arrays, counting the records it builds."""

    def __init__(self, ids, embeddings):
        self.ids = list(ids)
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.built = []

    def record(self, i):
        self.built.append(i)
        return ImageRecord(id=self.ids[i], embedding=self.embeddings[i], category="c")


class TestLazyRecords:
    def test_records_built_on_first_read_only(self):
        corpus = ArrayCorpus(["c", "a", "b"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        index = EmbeddingIndex(corpus)
        assert corpus.built == []
        (hit, score), = index.retrieve([0.0, 2.0], 1)
        assert (hit.id, score) == ("a", 1.0)
        assert corpus.built == [1]
        assert index.get("a") is hit
        assert [r.id for r in index.records] == ["a", "b", "c"]
        assert sorted(corpus.built) == [0, 1, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ManifestError, match="^duplicate record ids in manifest$"):
            EmbeddingIndex(ArrayCorpus(["a", "a"], [[1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "bad, message",
        [(0.0, "all-zero embedding"), (math.nan, "embedding norm is nan, not finite")],
        ids=("zero", "nan"),
    )
    def test_unnormalizable_row_rejected(self, bad, message):
        corpus = ArrayCorpus(["z", "b", "a"], [[1.0, 0.0], [bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroVector, match=f"^record b: {message}$"):
            EmbeddingIndex(corpus)

    def test_concurrent_first_reads_build_each_record_once(self):
        # The fill is check-then-act on a shared slot: without its lock, two
        # threads could each build a record for one id.
        rng = np.random.default_rng(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                corpus = ArrayCorpus([f"r{i:03d}" for i in range(200)], rng.normal(size=(200, 4)))
                index = EmbeddingIndex(corpus)
                barrier = threading.Barrier(8)
                reads = [[] for _ in range(8)]

                def read(out):
                    barrier.wait()
                    out.extend(index.get(record_id) for record_id in corpus.ids)

                threads = [threading.Thread(target=read, args=(out,)) for out in reads]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(corpus.built) == list(range(200))
                for out in reads:
                    assert len(out) == 200
                    assert all(a is b for a, b in zip(out, reads[0]))
        finally:
            sys.setswitchinterval(interval)
