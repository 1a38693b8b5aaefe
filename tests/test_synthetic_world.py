import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplay.config import RunConfig, WorldConfig
from triplay.consensus import ExactNormalizedJudge, extract_boxed
from triplay.diversity import text_distance
from triplay.embedding_index import EmbeddingIndex, IndexManifest
from triplay.errors import ConfigError
from triplay.orchestrator import build_engine
from triplay.rewards import probe_from_answers
from triplay.synthetic_world import (
    FREQUENCIES,
    INITIAL_SKILL,
    QUESTION_FORMS,
    SyntheticWorld,
    canonical_answer,
    gen_corpus,
    logistic,
    question_delta,
    solve_probability,
    synthetic_solve,
)

from conftest import (
    cosine_similarity,
    ks_statistic_uniform,
    neutral_sample,
    selected_difficulties,
    stage1_stats,
)

CATEGORIES = ["charts", "diagrams", "maps", "photos"]


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(seed=7, count=2000, dim=32, categories=CATEGORIES)


class TestGenCorpus:
    def test_deterministic(self):
        a = gen_corpus(3, 50, 16, CATEGORIES)
        b = gen_corpus(3, 50, 16, CATEGORIES)
        assert [r.id for r in a] == [r.id for r in b]
        np.testing.assert_array_equal(a[17].embedding, b[17].embedding)
        assert a[17].meta == b[17].meta

    def test_difficulty_mean(self):
        records = gen_corpus(5, 1000, 16, CATEGORIES)
        mean = np.mean([r.meta["difficulty"] for r in records])
        assert mean == pytest.approx(0.5, abs=0.05)

    def test_unit_embeddings(self):
        for record in gen_corpus(1, 20, 16, CATEGORIES):
            assert np.linalg.norm(record.embedding) == pytest.approx(1.0)

    def test_nearby_difficulty_nearby_embedding(self):
        # Same-category pairs: |delta difficulty| 0.01 must beat 0.9 on cosine.
        rng = np.random.default_rng(2)
        records = gen_corpus(11, 4000, 32, CATEGORIES)
        by_cat = [r for r in records if r.category == "charts"]
        close_sims, far_sims = [], []
        for _ in range(200):
            a, b = rng.choice(len(by_cat), size=2, replace=False)
            gap = abs(by_cat[a].meta["difficulty"] - by_cat[b].meta["difficulty"])
            sim = cosine_similarity(by_cat[a].embedding, by_cat[b].embedding)
            if gap < 0.02:
                close_sims.append(sim)
            elif gap > 0.85:
                far_sims.append(sim)
        assert close_sims and far_sims
        assert min(close_sims) > max(far_sims)

    def test_cross_category_orthogonal_up_to_noise(self):
        records = gen_corpus(13, 100, 32, CATEGORIES)
        a = next(r for r in records if r.category == "charts")
        b = next(r for r in records if r.category == "maps")
        assert abs(cosine_similarity(a.embedding, b.embedding)) < 0.15

    def test_meta_carries_latents(self):
        # A synthetic image is its record: the meta is where its latents live.
        for record in gen_corpus(1, 40, 16, CATEGORIES):
            assert set(record.meta) == {"difficulty", "answer"}
            assert type(record.meta["difficulty"]) is float
            assert 0.0 <= record.meta["difficulty"] < 1.0

    def test_answer_is_canonical(self):
        for record in gen_corpus(3, 40, 16, CATEGORIES):
            assert record.meta["answer"] == canonical_answer(record.id)



def reference_direction(categories, category, difficulty, dim):
    """The world's per-image curve as first written: one vector at a time."""
    blocks = dim // (2 * len(categories))
    if blocks < 1:
        raise ConfigError(
            f"dim {dim} cannot host {len(categories)} categories (need >= 2 dims each)"
        )
    offset = categories.index(category) * 2 * blocks
    vec = np.zeros(dim)
    for b in range(blocks):
        freq = FREQUENCIES[b % len(FREQUENCIES)] * (1 + b // len(FREQUENCIES))
        angle = freq * difficulty
        vec[offset + 2 * b] = math.cos(angle)
        vec[offset + 2 * b + 1] = math.sin(angle)
    return vec / math.sqrt(blocks)


def reference_corpus(seed, count, dim, categories, noise):
    """(id, embedding, difficulty, answer) per image, built one image at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        category = categories[i % len(categories)]
        difficulty = float(rng.uniform())
        vec = reference_direction(categories, category, difficulty, dim)
        vec = vec + noise * rng.normal(size=dim)
        vec = vec / np.linalg.norm(vec)
        image_id = f"{category}-{i:06d}"
        out.append((image_id, vec, difficulty, canonical_answer(image_id)))
    return out


class TestBatchedBuildMatchesPerImage:
    """gen_corpus and the query templates equal the per-image build bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 300),
        dim=st.integers(4, 64),
        ncat=st.integers(1, 6),
        noise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    def test_corpus_and_templates(self, seed, count, dim, ncat, noise):
        categories = [f"cat{c}" for c in range(ncat)]
        try:
            want = reference_corpus(seed, count, dim, categories, noise)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                gen_corpus(seed, count, dim, categories, noise=noise)
            return
        records = gen_corpus(seed, count, dim, categories, noise=noise)
        assert len(records) == len(want)
        for record, (image_id, vec, difficulty, answer) in zip(records, want):
            assert record.id == image_id
            assert record.embedding.tobytes() == vec.tobytes()
            assert record.meta["difficulty"] == difficulty
            assert type(record.meta["difficulty"]) is float
            assert record.meta["answer"] == answer
        index = EmbeddingIndex(IndexManifest(dimension=dim, records=records))
        world = SyntheticWorld(index, categories)
        for t in world.templates:
            direction = reference_direction(categories, t.category, t.difficulty, dim)
            assert t.embedding.tobytes() == direction.tobytes()

    def test_dim_too_small_raises_before_building(self):
        with pytest.raises(ConfigError, match="dim 5 cannot host 3 categories"):
            gen_corpus(1, 10, 5, ["a", "b", "c"])


class TestLazyWorld:
    """The world's index builds each record on first read; what it builds is
    gen_corpus's record, and the index ranks as one built from gen_corpus."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 300),
        dim=st.integers(4, 64),
        ncat=st.integers(1, 6),
        k=st.integers(1, 8),
    )
    def test_lazy_world_is_the_eager_corpus(self, seed, count, dim, ncat, k):
        categories = [f"cat{c}" for c in range(ncat)]
        try:
            records = gen_corpus(seed, count, dim, categories)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                SyntheticWorld.generate(seed, count, dim, categories)
            return
        world = SyntheticWorld.generate(seed, count, dim, categories)
        eager = EmbeddingIndex(IndexManifest(dimension=dim, records=records))
        queries = [t.embedding for t in world.templates]
        lazy_hits = world.index.retrieve_batch(queries, k)
        eager_hits = eager.retrieve_batch(queries, k)
        for lazy_ranked, eager_ranked in zip(lazy_hits, eager_hits):
            assert [r.id for r, _ in lazy_ranked] == [r.id for r, _ in eager_ranked]
            assert np.array([s for _, s in lazy_ranked]).tobytes() == (
                np.array([s for _, s in eager_ranked]).tobytes()
            )
            for record, _ in lazy_ranked:
                assert world.index.get(record.id) is record
        for want in records:
            got = world.index.get(want.id)
            assert got.embedding.tobytes() == want.embedding.tobytes()
            assert got.meta == want.meta
            assert type(got.meta["difficulty"]) is float
            assert (got.uri, got.source, got.category) == (want.uri, want.source, want.category)
            assert world.index.get(want.id) is got
        assert [r.id for r in world.index.records] == sorted(r.id for r in records)


class TestSolver:
    def test_easy_image_high_skill(self):
        assert solve_probability(5.0, 0.0) > 0.99

    def test_skill_equals_difficulty_is_half(self):
        assert solve_probability(0.37, 0.37) == 0.5

    def test_deterministic_with_fixed_rng(self, world):
        image = world.index.records[0]
        a = synthetic_solve(INITIAL_SKILL, image, np.random.default_rng(9))
        b = synthetic_solve(INITIAL_SKILL, image, np.random.default_rng(9))
        assert a == b
        assert "\\boxed{" in a

    def test_monte_carlo_matches_logistic(self, world):
        image = next(r for r in world.index.records if 0.4 < r.meta["difficulty"] < 0.45)
        rng = np.random.default_rng(21)
        hits = sum(
            image.meta["answer"] in synthetic_solve(INITIAL_SKILL, image, rng)
            for _ in range(2000)
        )
        p = solve_probability(INITIAL_SKILL, image.meta["difficulty"])
        se = (p * (1 - p) / 2000) ** 0.5
        assert hits / 2000 == pytest.approx(p, abs=4 * se)

    def test_probe_converges_to_logistic(self, world):
        # Large-m probe: voted accuracy approaches the analytic solve rate.
        image = next(r for r in world.index.records if 0.45 < r.meta["difficulty"] < 0.55)
        rng = np.random.default_rng(5)
        answers = [
            extract_boxed(synthetic_solve(INITIAL_SKILL, image, rng)) for _ in range(1000)
        ]
        probe = probe_from_answers(answers, ExactNormalizedJudge())
        p = solve_probability(INITIAL_SKILL, image.meta["difficulty"])
        se = (p * (1 - p) / 1000) ** 0.5
        assert probe.accuracy == pytest.approx(p, abs=3 * se)
        assert probe.vote.label == image.meta["answer"]

    def test_question_delta_markers(self):
        for marker, delta, question in QUESTION_FORMS:
            assert question_delta(question) == delta
        assert question_delta("unrelated text") == 0.0

    def test_question_forms_pairwise_distant(self):
        texts = [q for _, _, q in QUESTION_FORMS]
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                assert text_distance(texts[i], texts[j]) > 0.5

    def test_logistic_symmetry(self):
        assert logistic(0.0) == 0.5
        assert logistic(3.0) + logistic(-3.0) == pytest.approx(1.0)


class TestWorldStructure:
    def test_template_texts_distant_within_category(self, world):
        templates = [world.templates[i] for i in world.template_indices("charts")]
        for i in range(len(templates)):
            for j in range(i + 1, len(templates)):
                assert text_distance(templates[i].text, templates[j].text) > 0.5

    def test_adjacent_bands_visually_separate(self, world):
        templates = [world.templates[i] for i in world.template_indices("charts")]
        for a, b in zip(templates, templates[1:]):
            assert 1.0 - cosine_similarity(a.embedding, b.embedding) > 0.1

    def test_retrieval_targets_band_difficulty(self, world):
        for template in world.templates[::9]:
            record, _ = world.index.retrieve(template.embedding, 1)[0]
            assert record.category == template.category
            assert abs(record.meta["difficulty"] - template.difficulty) < 0.1

    def test_embed_query_known_and_unknown(self, world):
        template = world.templates[3]
        np.testing.assert_array_equal(
            world.embed_query(template.text), template.embedding
        )
        unknown = world.embed_query("never seen before")
        assert np.linalg.norm(unknown) == pytest.approx(1.0)
        np.testing.assert_array_equal(unknown, world.embed_query("never seen before"))


def stage1_engine():
    """Synthetic engine over the same 2000-image world as the `world` fixture,
    with neutral probes."""
    engine = build_engine(
        RunConfig(seed=7, mode="synthetic", world=WorldConfig(count=2000, dim=32))
    )
    engine.questioner.sample = neutral_sample
    return engine


@pytest.fixture(scope="module")
def trained():
    engine = stage1_engine()
    return engine, stage1_stats(engine, steps=120, seed=11)


class TestSimulateStage1:
    """Stage 1 simulated by Engine.stage1_step with neutral probes."""

    def test_acc_gap_decreases(self, trained):
        _, stats = trained
        first = stats[0]["acc_gap_mean"]
        last = np.mean([s["acc_gap_mean"] for s in stats[-10:]])
        assert last < 0.8 * first

    def test_challenge_increases(self, trained):
        _, stats = trained
        first = np.mean([s["challenge_mean"] for s in stats[:24]])
        last = np.mean([s["challenge_mean"] for s in stats[-24:]])
        assert last > first

    def test_deterministic(self):
        e1, e2 = stage1_engine(), stage1_engine()
        assert stage1_stats(e1, steps=5, seed=3) == stage1_stats(e2, steps=5, seed=3)
        np.testing.assert_array_equal(e1.searcher.logits, e2.searcher.logits)

    def test_untrained_baseline_flat(self):
        engine = stage1_engine()
        engine.searcher.apply = lambda groups: None
        stats = stage1_stats(engine, steps=60, seed=13)
        first = np.mean([s["challenge_mean"] for s in stats[:20]])
        last = np.mean([s["challenge_mean"] for s in stats[-20:]])
        assert abs(last - first) < 0.08
        np.testing.assert_array_equal(
            engine.searcher.logits, np.zeros(len(engine.world.templates))
        )

    def test_penalty_drops_from_concentrated_start(self):
        # Mirrors the expected shape: high early repetition, then a drop to a
        # stable diverse regime once the diversity term bites.
        engine = stage1_engine()
        for category in engine.world.categories:
            idx = engine.world.template_indices(category)
            engine.searcher.logits[idx[3]] = 5.0
        stats = stage1_stats(engine, steps=120, seed=5)
        pen = [s["penalty_mean"] for s in stats]
        first_quarter = np.mean(pen[:30])
        last_quarter = np.mean(pen[-30:])
        assert last_quarter < first_quarter
        third_quarter = np.mean(pen[60:90])
        assert abs(last_quarter - third_quarter) < 0.15

    def test_curriculum_concentrates_near_skill(self, trained):
        engine, _ = trained
        world = engine.world
        uniform = np.zeros(len(world.templates))
        ks_trained = ks_statistic_uniform(
            selected_difficulties(world, engine.searcher.logits, 400, np.random.default_rng(3))
        )
        ks_uniform = ks_statistic_uniform(
            selected_difficulties(world, uniform, 400, np.random.default_rng(3))
        )
        assert ks_trained > ks_uniform


class TestKsStatistic:
    def test_uniform_sample_small(self):
        rng = np.random.default_rng(0)
        assert ks_statistic_uniform(list(rng.uniform(size=2000))) < 0.05

    def test_concentrated_sample_large(self):
        rng = np.random.default_rng(0)
        assert ks_statistic_uniform(list(rng.uniform(0.45, 0.55, size=2000))) > 0.4
