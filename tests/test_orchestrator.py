import fnmatch
import functools
import json
import logging
import re
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    ScriptedEmbeddingBackend,
    Stopped,
    assert_same_artifacts,
    end_run_after,
    random_active,
)

from triplay import orchestrator, synthetic_world
from triplay.config import IterationConfig, RunConfig, WorldConfig
from triplay.consensus import extract_tagged
from triplay.embedding_index import ImageRecord
from triplay.errors import ConfigError, DimensionMismatch
from triplay.grpo import log_probabilities, toy_policy_update
from triplay.orchestrator import (
    ARTIFACTS,
    SOLVER_GAIN,
    TOY_LEARNING_RATE,
    Engine,
    Group,
    Journal,
    Sample,
    build_engine,
    category_distribution,
    consensus_histogram,
    read_jsonl,
    run,
    stage_seed,
)
from triplay.synthetic_world import INITIAL_SKILL, QUESTION_FORMS

SMALL_WORLD = WorldConfig(count=600, dim=32)


def small_cfg(tmp_path, seed=7, **iteration_overrides) -> RunConfig:
    defaults = dict(
        cycles=1,
        queries_per_iteration=60,
        searcher_steps=3,
        questioner_steps=3,
        solver_steps=4,
    )
    defaults.update(iteration_overrides)
    iteration = IterationConfig(**defaults)
    return RunConfig(
        seed=seed,
        mode="synthetic",
        run_dir=str(tmp_path / "run"),
        iteration=iteration,
        world=SMALL_WORLD,
    )


@pytest.fixture()
def engine(tmp_path):
    return build_engine(small_cfg(tmp_path))


class TestStage1:
    def test_shapes_and_ranges(self, engine):
        rng = np.random.default_rng(0)
        result = engine.stage1_step(0, rng)
        g = engine.cfg.iteration.group_size
        n_domains = len(engine.cfg.iteration.domains)
        assert len(result.rows) == g * n_domains
        assert len(result.batches) == g * n_domains
        for row in result.rows:
            assert 0.0 <= row["r_final"] <= 1.0
            assert row["r_final"] == max(0.0, row["r_chal"] - row["p_rep"])

    def test_batches_have_group_size_per_domain(self, engine):
        result = engine.stage1_step(0, np.random.default_rng(1))
        by_domain: dict[str, int] = {}
        for batch in result.batches:
            by_domain[batch.domain] = by_domain.get(batch.domain, 0) + 1
        g = engine.cfg.iteration.group_size
        assert all(count == g for count in by_domain.values())

    def test_domain_advantages_mean_zero(self, engine):
        result = engine.stage1_step(0, np.random.default_rng(2))
        by_domain: dict[str, list[float]] = {}
        for batch in result.batches:
            by_domain.setdefault(batch.domain, []).append(batch.advantage)
        for advantages in by_domain.values():
            assert np.mean(advantages) == pytest.approx(0.0, abs=1e-9)

    def test_rows_reference_real_images(self, engine):
        result = engine.stage1_step(0, np.random.default_rng(3))
        for row in result.rows:
            if row["image_id"] is not None:
                record = engine.index.get(row["image_id"])
                assert record.category == row["domain"]


class StubSearcher:
    """Emits a fixed raw completion list regardless of domain."""

    def __init__(self, texts):
        self.texts = texts
        self.applied = []

    def sample(self, category, g, rng):
        assert g == len(self.texts)
        return [Sample(text=t) for t in self.texts]

    def apply(self, groups):
        self.applied.extend((g.domain, list(g.advantages)) for g in groups)

    def snapshot(self):
        return {}

    def restore(self, state):
        pass


class TestStage1FailurePaths:
    def test_identical_queries_zero_advantages(self, tmp_path):
        cfg = small_cfg(tmp_path, group_size=4)
        engine = build_engine(cfg)
        template = engine.world.templates[0]
        raw = f"<type>charts</type>\n<query>{template.text}</query>"
        engine.searcher = StubSearcher([raw] * 4)
        result = engine.stage1_step(0, np.random.default_rng(4))
        finals = [row["r_final"] for row in result.rows]
        # Identical queries hit the same image: identical rewards, no signal.
        per_domain = len(cfg.iteration.domains)
        for d in range(per_domain):
            segment = finals[d * 4 : (d + 1) * 4]
            assert len(set(segment)) == 1
        assert all(b.advantage == 0.0 for b in result.batches)

    def test_unparsable_query_scores_zero_and_keeps_group_size(self, tmp_path):
        cfg = small_cfg(tmp_path, group_size=4)
        engine = build_engine(cfg)
        template = engine.world.templates[1]
        good = f"<type>charts</type>\n<query>{template.text}</query>"
        engine.searcher = StubSearcher([good, "no tags at all", good, "<query>broken"])
        result = engine.stage1_step(0, np.random.default_rng(5))
        assert len(result.rows) == 4 * len(cfg.iteration.domains)
        for d in range(len(cfg.iteration.domains)):
            segment = result.rows[d * 4 : (d + 1) * 4]
            assert segment[1]["query"] is None
            assert segment[1]["r_final"] == 0.0
            assert segment[3]["query"] is None
            assert segment[0]["image_id"] is not None

    def test_unparsable_probes_keep_query_and_image(self, tmp_path):
        cfg = small_cfg(tmp_path, group_size=4)
        engine = build_engine(cfg)
        engine.questioner.sample = lambda image, g, rng: [Sample(text="no question tag")] * g
        result = engine.stage1_step(0, np.random.default_rng(6))
        assert len(result.rows) == 4 * len(cfg.iteration.domains)
        for row in result.rows:
            assert row["query"]
            record, _ = engine.index.retrieve(engine.embedder.embed(row["query"]), 1)[0]
            assert row["image_id"] == record.id
            assert row["acc"] is None
            assert row["r_final"] == 0.0

    def test_empty_probe_question_is_dropped(self, tmp_path, caplog):
        # Stage 1 and the training set drop what stage 2 drops: an empty
        # question, and a question without a valid type or a nonempty answer.
        cfg = small_cfg(tmp_path, group_size=4)
        engine = build_engine(cfg)
        d_active = engine.build_active_dataset(np.random.default_rng(5))[:6]
        for text in (
            "<type>numeric_value</type><question> </question><answer>1</answer>",
            "<question>What value does the figure report?</question>",
            "<type>numeric_value</type><question>What value?</question><answer> </answer>",
            "<type>bogus_kind</type><question>What value?</question><answer>1</answer>",
        ):
            engine.questioner.sample = lambda image, g, rng: [Sample(text=text)] * g
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="triplay.orchestrator"):
                result = engine.stage1_step(0, np.random.default_rng(6))
                d_train, _ = engine.build_training_set(d_active, np.random.default_rng(7))
            assert len(result.rows) == 4 * len(cfg.iteration.domains)
            for row in result.rows:
                assert row["query"] and row["image_id"]
                assert row["acc"] is None
                assert row["r_final"] == 0.0
            dropped = [m for m in caplog.messages if "probe question unparsable" in m]
            assert len(dropped) == len(result.rows), text
            assert d_train == [], text
            dropped = [m for m in caplog.messages if "(malformed question)" in m]
            assert len(dropped) == len(d_active), text


class TestBuildActive:
    def test_dedup_and_provenance(self, engine):
        rng = np.random.default_rng(6)
        rows = engine.build_active_dataset(rng)
        it = engine.cfg.iteration
        assert rows
        ids = [r["image_id"] for r in rows]
        assert len(ids) == len(set(ids))
        assert len(rows) < it.queries_per_iteration * it.top_k
        for row in rows:
            assert 1 <= row["rank"] <= it.top_k
            assert row["query"]

    def test_deterministic(self, tmp_path):
        a = build_engine(small_cfg(tmp_path))
        b = build_engine(small_cfg(tmp_path))
        rows_a = a.build_active_dataset(np.random.default_rng(9))
        rows_b = b.build_active_dataset(np.random.default_rng(9))
        assert rows_a == rows_b

    def test_random_baseline_shape(self, engine):
        rows = random_active(engine, 40, np.random.default_rng(10))
        assert len(rows) == 40
        assert len({r["image_id"] for r in rows}) == 40
        assert all(r["rank"] == 1 for r in rows)


def build_active_reference(engine, rng) -> list[dict]:
    """build_active_dataset as it was before the query dedup: every parsed
    query, repeats included, is embedded and retrieved, each on its own."""
    it = engine.cfg.iteration
    rows: list[dict] = []
    seen: set[str] = set()
    quota = it.queries_per_iteration // len(it.domains)
    extra = it.queries_per_iteration - quota * len(it.domains)
    for d_idx, domain in enumerate(it.domains):
        count = quota + (1 if d_idx < extra else 0)
        if count == 0:
            continue
        samples = engine.searcher.sample(domain.category, count, rng)
        queries = [q for q in (extract_tagged(s.text, "query") for s in samples) if q]
        if not queries:
            continue
        for query in queries:
            ranked = engine.index.retrieve(engine.embedder.embed(query), it.top_k)
            for rank, (record, score) in enumerate(ranked, start=1):
                if record.id in seen:
                    continue
                seen.add(record.id)
                rows.append({"image_id": record.id, "category": record.category, "query": query,
                             "rank": rank, "score": score})
    return rows


def count_embeds(engine) -> Counter:
    """Wrap engine.embedder.embed; the returned Counter counts calls per text."""
    calls: Counter = Counter()
    embed = engine.embedder.embed

    def counted(text):
        calls[text] += 1
        return embed(text)

    engine.embedder.embed = counted
    return calls


def count_retrievals(engine) -> list:
    """Wrap engine.index.retrieve_batch, which every retrieve goes through;
    the returned list gets one entry per call."""
    calls: list = []
    retrieve_batch = engine.index.retrieve_batch

    def counted(queries, k, *args):
        calls.append(k)
        return retrieve_batch(queries, k, *args)

    engine.index.retrieve_batch = counted
    return calls


def brute_force_top1(index):
    """Oracle over the index's records: from a query embedding to the ids
    whose cosine with it is within 1e-12 of the best one."""
    ids = np.array([r.id for r in index.records])
    matrix = np.stack([r.embedding / np.linalg.norm(r.embedding) for r in index.records])

    def top1(query_embedding) -> set[str]:
        scores = matrix @ (query_embedding / np.linalg.norm(query_embedding))
        return set(ids[scores >= scores.max() - 1e-12])

    return top1


class TestDistinctWorkOnce:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_build_active_matches_undeduplicated_reference(self, tmp_path, seed):
        # 600 queries per domain from 8 templates each: many repeats, which
        # the reference embeds and retrieves again each time.
        cfg = small_cfg(tmp_path, seed=seed, queries_per_iteration=2400)
        engine = build_engine(cfg)
        calls = count_embeds(engine)
        rows = engine.build_active_dataset(np.random.default_rng(seed))
        reference = build_active_reference(build_engine(cfg), np.random.default_rng(seed))
        assert rows == reference
        assert max(calls.values()) == 1
        assert sum(calls.values()) < cfg.iteration.queries_per_iteration

    def test_stage1_embeds_each_query_text_once(self, engine):
        calls = count_embeds(engine)
        rng = np.random.default_rng(31)
        queries = [row["query"] for step in range(20) for row in engine.stage1_step(step, rng).rows]
        assert set(calls) == set(queries)
        assert set(calls.values()) == {1}
        assert len(queries) > len(calls)

    def test_run_embeds_each_text_once_across_stages_and_cycles(self, tmp_path, monkeypatch):
        # Stage 1 and build_active read one query memo, so a text stage 1
        # retrieved is not embedded or retrieved again by build_active or by
        # cycle 2.
        cfg = small_cfg(tmp_path, cycles=2)
        engines = []

        def counted_engine(cfg):
            engine = build_engine(cfg)
            engines.append((engine, count_embeds(engine), count_retrievals(engine)))
            return engine

        monkeypatch.setattr(orchestrator, "build_engine", counted_engine)
        run_dir = Path(run(cfg)["run_dir"])
        (_, calls, retrievals), = engines
        assert set(calls.values()) == {1}
        assert retrievals == [cfg.iteration.top_k] * len(calls)
        states = {e["key"]: e["state"] for e in Journal(run_dir / "journal.json").entries}
        queries = set()
        for cycle in (1, 2):
            cycle_dir = run_dir / f"cycle{cycle}"
            active = read_jsonl(cycle_dir / "d_active.jsonl")
            queries |= {row["query"] for row in read_jsonl(cycle_dir / "queries.jsonl")}
            queries |= {row["query"] for row in active}
            # The searcher as it stood when the cycle's build_active ran.
            reference = build_engine(cfg)
            reference.restore(states[f"cycle{cycle}:stage1"])
            rng = np.random.default_rng(stage_seed(cfg.seed, cycle, "build_active"))
            assert active == build_active_reference(reference, rng)
        assert queries <= set(calls)

    def test_stage1_image_is_brute_force_top1(self, engine):
        oracle = brute_force_top1(engine.index)
        rng = np.random.default_rng(32)
        for step in range(20):
            for row in engine.stage1_step(step, rng).rows:
                assert row["image_id"] in oracle(engine.world.embed_query(row["query"]))

    def test_query_scores_alike_in_stage1_and_active_set(self, engine):
        # Stage 1's hit is the first entry of the query's memoized top_k, and
        # an active row is the entry at its rank, score and all. Once stage 1
        # has retrieved every template, the active set retrieves nothing.
        rng = np.random.default_rng(34)
        templates = {t.text for t in engine.world.templates}
        rows = []
        for step in range(200):
            rows += engine.stage1_step(step, rng).rows
            if {row["query"] for row in rows} == templates:
                break
        assert {row["query"] for row in rows} == templates
        for row in rows:
            assert row["image_id"] == engine._ranked(row["query"])[0][0].id
        retrievals = count_retrievals(engine)
        active = engine.build_active_dataset(rng)
        assert active
        assert retrievals == []
        for row in active:
            record, score = engine._ranked(row["query"])[row["rank"] - 1]
            assert (row["image_id"], row["score"]) == (record.id, score)

    def test_memos_stay_within_bounds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "_QUERY_MEMO_SIZE", 5)
        monkeypatch.setattr(orchestrator, "_TEXT_PAIR_MEMO_SIZE", 7)
        world_engine = build_engine(small_cfg(tmp_path))

        class FreshQueries(StubSearcher):
            """Every sample is a text never seen before."""

            def sample(self, category, g, rng):
                self.applied.append(None)
                n = len(self.applied)
                return [Sample(text=f"<query>{category} probe {n} {i}</query>") for i in range(g)]

        engine = Engine(
            world_engine.cfg,
            index=world_engine.index,
            searcher=FreshQueries([]),
            questioner=world_engine.questioner,
            solver=world_engine.solver,
            embedder=ScriptedEmbeddingBackend(dimension=32, seed=3),
        )
        rng = np.random.default_rng(33)
        rows = [row for step in range(4) for row in engine.stage1_step(step, rng).rows]
        assert len({row["query"] for row in rows}) > 5
        oracle = brute_force_top1(engine.index)
        for row in rows:
            assert row["image_id"] in oracle(engine.embedder.embed(row["query"]))
        assert len(engine._ranked) == 5
        # The first step's queries were evicted, so they are retrieved anew.
        retrieve = engine.index.retrieve
        retrieved = []
        monkeypatch.setattr(
            engine.index, "retrieve", lambda *args: retrieved.append(args) or retrieve(*args)
        )
        assert engine._ranked(rows[0]["query"])[0][0].id == rows[0]["image_id"]
        assert len(retrieved) == 1
        assert len(engine._ranked) == 5
        assert len(engine._text_distance) <= 7

    def test_failed_lookup_is_not_memoized(self, engine):
        query = engine.world.templates[0].text
        embed = engine.embedder.embed
        replies = iter([RuntimeError("transport down"), np.zeros(5)])

        def flaky(text):
            reply = next(replies, None)
            if isinstance(reply, Exception):
                raise reply
            return embed(text) if reply is None else reply

        engine.embedder.embed = flaky
        with pytest.raises(RuntimeError):
            engine._ranked(query)
        with pytest.raises(DimensionMismatch):
            engine._ranked(query)
        assert len(engine._ranked) == 0
        top_k = engine.cfg.iteration.top_k
        assert engine._ranked(query) == engine.index.retrieve(embed(query), top_k)

    def test_query_memos_are_single_flight(self, engine):
        # Threads that need one text at once share one embed request and
        # one retrieval.
        query = engine.world.templates[0].text
        embed = engine.embedder.embed
        requests = []

        def slow(text):
            requests.append(text)
            time.sleep(0.05)
            return embed(text)

        engine.embedder.embed = slow
        retrievals = count_retrievals(engine)
        start = threading.Barrier(8)
        results = []

        def work():
            start.wait()
            results.append(engine._ranked(query))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert requests == [query]
        assert len(retrievals) == 1
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        assert results[0] == engine.index.retrieve(embed(query), engine.cfg.iteration.top_k)

    def test_failed_embed_reaches_every_waiter(self, engine):
        query = engine.world.templates[0].text
        asked, release = threading.Event(), threading.Event()
        requests = []

        def failing(text):
            # Holds the first request until released, so the other callers
            # find it in flight.
            requests.append(text)
            asked.set()
            assert release.wait(timeout=10)
            raise RuntimeError("transport down")

        engine.embedder.embed = failing
        outcomes = []

        def call():
            try:
                outcomes.append(engine._ranked(query))
            except Exception as exc:
                outcomes.append(exc)

        first = threading.Thread(target=call)
        first.start()
        assert asked.wait(timeout=10)
        waiters = [threading.Thread(target=call) for _ in range(4)]
        for thread in waiters:
            thread.start()
        time.sleep(0.2)
        release.set()
        for thread in (first, *waiters):
            thread.join()
        assert len(outcomes) == 5
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert requests == [query]
        assert len(engine._ranked) == 0


class NoBoxSolver:
    """A solver whose rollouts never box an answer."""

    def solve(self, image, question, n, rng):
        return ["no boxed answer here"] * n

    def apply(self, groups):
        pass


class TestStage2:
    def test_rows_and_batches(self, engine):
        d_active = engine.build_active_dataset(np.random.default_rng(11))
        result = engine.stage2_step(0, d_active, np.random.default_rng(12))
        it = engine.cfg.iteration
        expected = orchestrator.STAGE2_IMAGES_PER_STEP * it.group_size
        assert len(result.rows) == expected
        assert len(result.batches) == expected
        active_ids = {r["image_id"] for r in d_active}
        for row in result.rows:
            assert row["image_id"] in active_ids
            assert 0.0 <= row["r_final"] <= 1.0

    def test_identical_questions_full_text_penalty(self, tmp_path):
        cfg = small_cfg(tmp_path, group_size=4)
        engine = build_engine(cfg)
        d_active = engine.build_active_dataset(np.random.default_rng(13))

        image_id = d_active[0]["image_id"]
        answer = engine.index.get(image_id).meta["answer"]
        raw = (
            f"<think>a</think>\n<type>numeric_value</type>\n"
            f"<question>State directly the measurement encoded by the figure.</question>\n"
            f"<answer>{answer}</answer>"
        )

        class OneQuestionStub(StubSearcher):
            def sample(self, image, g, rng):
                return [Sample(text=raw)] * g

            def apply(self, groups):
                pass

        engine.questioner = OneQuestionStub([])
        result = engine.stage2_step(0, d_active[:1], np.random.default_rng(14))
        assert all(row["p_rep"] == 1.0 for row in result.rows)

    def test_malformed_question_scores_zero(self, tmp_path):
        cfg = small_cfg(tmp_path, group_size=3)
        engine = build_engine(cfg)
        d_active = engine.build_active_dataset(np.random.default_rng(15))
        good = engine.questioner.sample(
            engine.index.get(d_active[0]["image_id"]), 1, np.random.default_rng(0)
        )[0].text

        class MixedStub(StubSearcher):
            def sample(self, image, g, rng):
                return [
                    Sample(text=good),
                    Sample(text="<question>no answer tag</question>"),
                    Sample(text="<type>bogus_kind</type><question>q</question><answer>1</answer>"),
                ]

            def apply(self, groups):
                pass

        engine.questioner = MixedStub([])
        result = engine.stage2_step(0, d_active[:1], np.random.default_rng(16))
        assert result.rows[1]["r_final"] == 0.0
        assert result.rows[1]["question"] is None
        assert result.rows[2]["r_final"] == 0.0
        assert len(result.rows) == 3

    def test_unboxed_rollouts_score_zero(self, engine):
        # An empty consensus is no answer at all: accuracy 0, no challenge.
        engine.solver = NoBoxSolver()
        d_active = engine.build_active_dataset(np.random.default_rng(11))
        result = engine.stage2_step(0, d_active, np.random.default_rng(12))
        scored = [row for row in result.rows if row["question"] is not None]
        assert scored
        assert all(row["acc"] == 0.0 and row["r_chal"] == 0.0 for row in scored)


class TestBuildTraining:
    def test_window_membership(self, engine):
        d_active = engine.build_active_dataset(np.random.default_rng(17))
        d_train, d_star = engine.build_training_set(
            d_active[:60], np.random.default_rng(18)
        )
        it = engine.cfg.iteration
        assert d_train
        assert len(d_star) <= len(d_train) <= 60
        star_ids = {(i["image_id"], i["question"]) for i in d_star}
        for item in d_train:
            in_window = it.tau_low < item["accuracy"] < it.tau_high
            assert ((item["image_id"], item["question"]) in star_ids) == in_window
            assert item["question_type"] in ("short_answer", "numeric_value")
            assert 0.0 < item["consensus_score"] <= 1.0

    def test_high_accuracy_excluded_from_star(self, engine):
        d_active = engine.build_active_dataset(np.random.default_rng(19))
        d_train, d_star = engine.build_training_set(
            d_active[:60], np.random.default_rng(20)
        )
        high = [i for i in d_train if i["accuracy"] >= 0.9]
        assert high, "expected some easy items in a random active set"
        star_keys = {(i["image_id"], i["question"]) for i in d_star}
        assert all((i["image_id"], i["question"]) not in star_keys for i in high)

    def test_accuracy_matches_consensus_for_exact_judge(self, engine):
        d_active = engine.build_active_dataset(np.random.default_rng(21))
        d_train, _ = engine.build_training_set(d_active[:30], np.random.default_rng(22))
        for item in d_train:
            assert item["accuracy"] == pytest.approx(item["consensus_score"])


class TestStage3:
    @pytest.fixture()
    def star_items(self, engine):
        d_active = engine.build_active_dataset(np.random.default_rng(23))
        _, d_star = engine.build_training_set(d_active[:80], np.random.default_rng(24))
        assert d_star
        return d_star

    def test_binary_rewards_and_advantages(self, engine, star_items):
        result = engine.stage3_step(0, star_items, np.random.default_rng(25))
        g = engine.cfg.iteration.group_size
        assert len(result.batches) % g == 0
        for batch in result.batches:
            assert batch.reward in (0.0, 1.0)
        by_item: dict[str, list[float]] = {}
        for batch in result.batches:
            key = batch.prompt_id.rsplit(":", 1)[0]
            by_item.setdefault(key, []).append(batch.advantage)
        for advantages in by_item.values():
            assert len(advantages) == g
            assert np.mean(advantages) == pytest.approx(0.0, abs=1e-9)

    def test_unboxed_answer_scores_zero(self, engine, star_items):
        engine.solver = NoBoxSolver()
        result = engine.stage3_step(0, star_items, np.random.default_rng(26))
        assert all(b.reward == 0.0 for b in result.batches)
        assert all(b.advantage == 0.0 for b in result.batches)

    def test_solver_learns_from_one_group_per_picked_item(self, engine, star_items):
        class RecordingSolver:
            def __init__(self, inner):
                self.inner = inner
                self.applied = []

            def solve(self, image, question, n, rng):
                return self.inner.solve(image, question, n, rng)

            def apply(self, groups):
                self.applied.append(groups)

        engine.solver = RecordingSolver(engine.solver)
        result = engine.stage3_step(0, star_items, np.random.default_rng(28))
        # The step's first draw picks its items.
        n_items = min(orchestrator.STAGE3_ITEMS_PER_STEP, len(star_items))
        picks = np.random.default_rng(28).choice(len(star_items), size=n_items, replace=False)
        [groups] = engine.solver.applied
        assert [g.key for g in groups] == [star_items[int(p)]["image_id"] for p in picks]
        size = engine.cfg.iteration.group_size
        assert len(result.batches) == size * len(groups)
        for i, group in enumerate(groups):
            batches = result.batches[i * size : (i + 1) * size]
            assert {b.prompt_id.rsplit(":", 1)[0] for b in batches} == {f"stage3:s0:{group.key}"}
            assert [b.reward for b in batches] == list(group.rewards)

    def test_empty_star_set_is_noop(self, engine):
        result = engine.stage3_step(0, [], np.random.default_rng(27))
        assert result.rows == [] and result.batches == []


class TestRunAndResume:
    def test_full_run_artifacts(self, tmp_path):
        cfg = small_cfg(tmp_path)
        report = run(cfg)
        run_dir = Path(report["run_dir"])
        for name in (
            "queries.jsonl",
            "searcher_batches.jsonl",
            "d_active.jsonl",
            "questions.jsonl",
            "questioner_batches.jsonl",
            "d_train.jsonl",
            "d_train_star.jsonl",
            "solver_steps.jsonl",
            "solver_batches.jsonl",
        ):
            assert (run_dir / "cycle1" / name).exists(), name
        assert (run_dir / "stats.json").exists()
        assert (run_dir / "journal.json").exists()
        assert (run_dir / "config.json").exists()

    def test_stage_ordering_invariants(self, tmp_path):
        report = run(small_cfg(tmp_path))
        cycle = Path(report["run_dir"]) / "cycle1"
        active_ids = {r["image_id"] for r in read_jsonl(cycle / "d_active.jsonl")}
        for row in read_jsonl(cycle / "questions.jsonl"):
            assert row["image_id"] in active_ids
        star_keys = {
            r["image_id"] for r in read_jsonl(cycle / "d_train_star.jsonl")
        }
        for row in read_jsonl(cycle / "solver_steps.jsonl"):
            assert row["image_id"] in star_keys
        train_rows = read_jsonl(cycle / "d_train.jsonl")
        train_keys = {r["image_id"] for r in train_rows}
        assert star_keys <= train_keys
        assert train_keys <= active_ids

    def test_star_rows_satisfy_window_on_disk(self, tmp_path):
        cfg = small_cfg(tmp_path)
        report = run(cfg)
        rows = read_jsonl(Path(report["run_dir"]) / "cycle1" / "d_train_star.jsonl")
        assert rows
        for row in rows:
            assert cfg.iteration.tau_low < row["accuracy"] < cfg.iteration.tau_high

    @pytest.mark.parametrize("stop_key", ["cycle1:stage1", "cycle1:build_training"])
    def test_resume_is_byte_identical(self, tmp_path, monkeypatch, stop_key):
        cfg_a = small_cfg(tmp_path / "a")
        run(cfg_a)
        cfg_b = small_cfg(tmp_path / "b")
        end_run_after(monkeypatch, stop_key)
        with pytest.raises(Stopped, match=stop_key):
            run(cfg_b)
        run(cfg_b)
        assert_same_artifacts(Path(cfg_a.run_dir), Path(cfg_b.run_dir))

    @pytest.mark.parametrize(
        "crash_key",
        [
            "cycle1:stage1",
            "cycle1:build_active",
            "cycle1:stage2",
            "cycle1:build_training",
            "cycle1:stage3",
        ],
    )
    def test_kill_before_commit_resumes_byte_identical(
        self, tmp_path, monkeypatch, crash_key
    ):
        # The process dies after a stage wrote its artifacts and updated the
        # agents, but before its journal entry landed.
        cfg_a = small_cfg(tmp_path / "a", cycles=2)
        run(cfg_a)
        cfg_b = small_cfg(tmp_path / "b", cycles=2)
        mark = Journal.mark
        crashed = []

        def mark_or_crash(self, key, *args, **kwargs):
            if key == crash_key and not crashed:
                crashed.append(key)
                raise RuntimeError(f"killed before committing {key}")
            return mark(self, key, *args, **kwargs)

        monkeypatch.setattr(Journal, "mark", mark_or_crash)
        with pytest.raises(RuntimeError, match="killed before committing"):
            run(cfg_b)
        run(cfg_b)
        assert crashed == [crash_key]
        assert_same_artifacts(Path(cfg_a.run_dir), Path(cfg_b.run_dir))

    @pytest.mark.parametrize("crash_at", range(1, 10))
    def test_kill_at_every_write_resumes_byte_identical(
        self, tmp_path, monkeypatch, crash_at
    ):
        # A one-cycle run makes 9 artifact writes; the process dies at write
        # number crash_at, before that artifact lands, and the rerun resumes.
        writes = []
        crash = {"at": None}

        def counted(write, path_arg):
            def wrapper(*args):
                path = args[path_arg]
                writes.append(path.name)
                if len(writes) == crash["at"]:
                    raise RuntimeError(f"killed writing {path.name}")
                return write(*args)

            return wrapper

        monkeypatch.setattr(orchestrator, "write_jsonl", counted(orchestrator.write_jsonl, 0))
        monkeypatch.setattr(
            orchestrator, "write_training_batch", counted(orchestrator.write_training_batch, 1)
        )
        cfg_a = small_cfg(tmp_path / "a")
        run(cfg_a)
        assert len(writes) == 9
        writes.clear()
        crash["at"] = crash_at
        cfg_b = small_cfg(tmp_path / "b")
        with pytest.raises(RuntimeError, match="killed writing"):
            run(cfg_b)
        crash["at"] = None
        run(cfg_b)
        assert_same_artifacts(Path(cfg_a.run_dir), Path(cfg_b.run_dir))

    def test_resume_skips_completed_stages(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        end_run_after(monkeypatch, "cycle1:build_active")
        with pytest.raises(Stopped):
            run(cfg)
        journal = json.loads((Path(cfg.run_dir) / "journal.json").read_text())
        assert [e["key"] for e in journal["entries"]] == [
            "cycle1:stage1",
            "cycle1:build_active",
        ]
        run(cfg)
        journal = json.loads((Path(cfg.run_dir) / "journal.json").read_text())
        keys = [e["key"] for e in journal["entries"]]
        assert keys.count("cycle1:stage1") == 1

    def test_resume_does_not_write_config(self, tmp_path, monkeypatch):
        # A kill while config.json is rewritten would leave it truncated and
        # every later resume refused, so a resume only reads it.
        cfg = small_cfg(tmp_path)
        end_run_after(monkeypatch, "cycle1:stage1")
        with pytest.raises(Stopped):
            run(cfg)
        written = []
        write_text = Path.write_text

        def recording_write_text(self, *args, **kwargs):
            written.append(self.name)
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", recording_write_text)
        run(cfg)
        assert "stats.json" in written
        assert "config.json" not in written

    def test_two_cycles(self, tmp_path):
        cfg = small_cfg(tmp_path / "cont", queries_per_iteration=40)
        cfg.iteration.cycles = 2
        report = run(cfg)
        assert (Path(report["run_dir"]) / "cycle2" / "d_train.jsonl").exists()

    def test_seed_changes_artifacts(self, tmp_path):
        report_a = run(small_cfg(tmp_path / "s1", seed=1))
        report_b = run(small_cfg(tmp_path / "s2", seed=2))
        a = (Path(report_a["run_dir"]) / "cycle1" / "d_active.jsonl").read_bytes()
        b = (Path(report_b["run_dir"]) / "cycle1" / "d_active.jsonl").read_bytes()
        assert a != b


def replay_policy(logits, path, rows_of) -> None:
    """Apply one exported batch file's groups to logits in file order, as the
    role did: a group is its rows' prompt_id without the sample index, and one
    with all-zero advantages carries no update."""
    groups: dict[str, list[dict]] = {}
    for row in read_jsonl(path):
        groups.setdefault(row["prompt_id"].rsplit(":", 1)[0], []).append(row)
    for group in groups.values():
        advantages = [row["advantage"] for row in group]
        if not any(advantages):
            continue
        rows = rows_of(group[0]["domain"])
        actions = np.asarray([row["tokens"][0] for row in group])
        logp_old = log_probabilities(logits[rows])[actions]
        logits[rows] = toy_policy_update(
            logits[rows], actions, logp_old, advantages, TOY_LEARNING_RATE
        )


def fresh_choice(role, domain: str, g: int, rng) -> list[tuple[int, float]]:
    """(action, logp_old) of g draws by rng.choice on a log-softmax computed
    now from the role's logits, as the role drew before it kept them."""
    logp = log_probabilities(role.logits[role._rows(domain)])
    return [(int(a), float(logp[a])) for a in rng.choice(len(logp), size=g, p=np.exp(logp))]


class TestKeptDistribution:
    def assert_draws_fresh(self, role, domain, draw):
        for seed in range(8):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            samples = draw(ours)
            assert [(s.action, s.logp_old) for s in samples] == fresh_choice(
                role, domain, len(samples), theirs
            )
            assert ours.random() == theirs.random()

    def test_searcher_draws_equal_fresh_choice(self, engine):
        searcher, category = engine.searcher, engine.world.categories[0]
        draw = functools.partial(searcher.sample, category, 6)
        self.assert_draws_fresh(searcher, category, draw)
        # Kept from the first draw, then dropped by apply and by restore.
        self.assert_draws_fresh(searcher, category, draw)
        samples = searcher.sample(category, 4, np.random.default_rng(0))
        before = searcher.logits.copy()
        searcher.apply(
            [Group("g", category, samples, [1.0, 0.0, 0.0, 0.0], [1.5, -0.5, -0.5, -0.5])]
        )
        assert not np.array_equal(searcher.logits, before)
        self.assert_draws_fresh(searcher, category, draw)
        searcher.restore({"logits": list(before)})
        self.assert_draws_fresh(searcher, category, draw)

    def test_questioner_draws_equal_fresh_choice(self, engine):
        questioner = engine.questioner
        image = engine.index.records[0]
        draw = functools.partial(questioner.sample, image, 3)
        self.assert_draws_fresh(questioner, image.category, draw)
        logits = np.linspace(-1.0, 1.0, len(questioner.logits))
        questioner.restore({"logits": list(logits)})
        self.assert_draws_fresh(questioner, image.category, draw)


    def test_restore_refuses_logits_of_another_shape(self, engine):
        searcher = engine.searcher
        before = searcher.logits.copy()
        for logits in ([0.0] * (len(before) + 1), [[0.0] * len(before)], 0.0):
            with pytest.raises(ValueError, match="logits of shape"):
                searcher.restore({"logits": logits})
        assert np.array_equal(searcher.logits, before)


class TestBatchReplay:
    def test_batches_replay_to_the_journal(self, tmp_path):
        # The exported batches are all a trainer gets: replaying them through
        # the same updates must land on the journal's agent state exactly.
        cfg = RunConfig(
            seed=7,
            mode="synthetic",
            run_dir=str(tmp_path / "run"),
            iteration=IterationConfig(cycles=2),
            world=WorldConfig(count=400),
        )
        run_dir = Path(run(cfg)["run_dir"])
        world = build_engine(cfg).world
        states = {e["key"]: e["state"] for e in Journal(run_dir / "journal.json").entries}
        searcher = np.zeros(len(world.templates))
        questioner = np.zeros(len(QUESTION_FORMS))
        all_forms = np.arange(len(QUESTION_FORMS))
        initial_skill = skill = INITIAL_SKILL
        for cycle in (1, 2):
            cycle_dir = run_dir / f"cycle{cycle}"
            replay_policy(searcher, cycle_dir / "searcher_batches.jsonl", world.template_indices)
            replay_policy(
                questioner, cycle_dir / "questioner_batches.jsonl", lambda domain: all_forms
            )
            rewards_by_step: dict[str, list[float]] = {}
            for row in read_jsonl(cycle_dir / "solver_batches.jsonl"):
                step = row["prompt_id"].split(":")[1]
                rewards_by_step.setdefault(step, []).append(row["reward"])
            for rewards in rewards_by_step.values():
                skill += SOLVER_GAIN * float(np.mean(rewards))
            assert states[f"cycle{cycle}:stage3"] == {
                "searcher": {"logits": [float(x) for x in searcher]},
                "questioner": {"logits": [float(x) for x in questioner]},
                "solver": {"skill": skill},
            }
        assert np.any(searcher != 0.0) and np.any(questioner != 0.0)
        assert skill != initial_skill


class TestStats:
    def test_histogram_and_shares(self, tmp_path):
        cfg = small_cfg(tmp_path)
        report = run(cfg)
        stats = json.loads((Path(report["run_dir"]) / "stats.json").read_text())
        block = stats["cycles"][0]
        hist = block["consensus_histogram"]
        assert hist["k"] == cfg.iteration.vote_trajectories
        assert len(hist["counts"]) == cfg.iteration.vote_trajectories + 1
        assert sum(hist["counts"]) == block["dataset_sizes"]["d_train"]
        assert hist["counts"][0] == 0
        shares = block["category_distribution"]
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        series = block["reward_series"]["searcher"]
        assert len(series) == cfg.iteration.searcher_steps
        assert all("r_chal" in row for row in series)

    def test_consensus_histogram_binning(self):
        items = [{"consensus_score": s} for s in (1 / 9, 2 / 9, 5 / 9, 1.0, 1.0)]
        hist = consensus_histogram(items, 9)
        assert hist["counts"][1] == 1
        assert hist["counts"][2] == 1
        assert hist["counts"][5] == 1
        assert hist["counts"][9] == 2
        assert sum(hist["counts"]) == 5

    def test_category_distribution(self):
        # The shares count the rows' category column; the ids name no image
        # of any index, as none is read.
        categories = ["maps", "charts", "maps", "maps"]
        rows = [{"image_id": f"nope{i}", "category": c} for i, c in enumerate(categories)]
        shares = category_distribution(rows)
        assert shares == {"charts": 0.25, "maps": 0.75}
        assert list(shares) == ["charts", "maps"]
        assert category_distribution([]) == {}

    def test_active_rows_carry_their_images_category(self, tmp_path):
        cfg = small_cfg(tmp_path, cycles=2)
        run_dir = Path(run(cfg)["run_dir"])
        index = build_engine(cfg).index
        for cycle in (1, 2):
            rows = read_jsonl(run_dir / f"cycle{cycle}" / "d_active.jsonl")
            assert len({row["category"] for row in rows}) == len(cfg.iteration.domains)
            for row in rows:
                assert row["category"] == index.get(row["image_id"]).category


class TestEngineWiring:
    def test_embedder_dimension_checked(self, tmp_path):
        cfg = small_cfg(tmp_path)
        engine = build_engine(cfg)

        class WrongDimEmbedder:
            dimension = 5

            def embed(self, text):
                return np.zeros(5)

        with pytest.raises(DimensionMismatch):
            Engine(
                cfg,
                index=engine.index,
                searcher=engine.searcher,
                questioner=engine.questioner,
                solver=engine.solver,
                embedder=WrongDimEmbedder(),
            )

    def test_invalid_config_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cfg.iteration.tau_low = 0.9
        with pytest.raises(ConfigError, match="window"):
            build_engine(cfg)

    def test_stage_seed_distinct(self):
        seeds = {
            stage_seed(7, cycle, stage)
            for cycle in (1, 2)
            for stage in ("stage1", "build_active", "stage2")
        }
        assert len(seeds) == 6

    def test_setup_builds_no_record_and_a_run_only_the_active_set(self, tmp_path, monkeypatch):
        # The world's index builds an image's record the first time it returns
        # it: set-up reads no image, and a cycle reads only the active set's.
        # 600 queries per domain draw every template, so the active set holds
        # each image stage 1 retrieved.
        built = []

        def counting_record(**fields):
            built.append(fields["id"])
            return ImageRecord(**fields)

        monkeypatch.setattr(synthetic_world, "ImageRecord", counting_record)
        cfg = small_cfg(tmp_path, queries_per_iteration=2400)
        build_engine(cfg)
        assert built == []
        run(cfg)
        d_active = read_jsonl(tmp_path / "run" / "cycle1" / "d_active.jsonl")
        active = {row["image_id"] for row in d_active}
        assert len(built) == len(set(built))
        assert set(built) == active


def readme_cycle_lines() -> dict[str, set[str]]:
    """{file pattern: the columns in its braces} for every cycleN/ line of the
    README's run-directory block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Run directory", 1)[1].split("```", 2)[1]
    lines = {}
    for line in block.splitlines():
        match = re.match(r"cycleN/(\S+)\s.*?(?:\{(.*)\})?$", line)
        if match:
            pattern, columns = match.groups()
            lines[pattern] = {c.strip() for c in (columns or "").split(",")} - {""}
    return lines


class TestArtifactTable:
    def test_readme_lists_each_artifact_once_with_its_columns(self):
        lines = readme_cycle_lines()
        for pattern in lines:
            assert fnmatch.filter(ARTIFACTS, pattern), f"README line {pattern} names no artifact"
        for name, (_, columns) in ARTIFACTS.items():
            matching = [pattern for pattern in lines if fnmatch.fnmatch(name, pattern)]
            assert len(matching) == 1, f"{name} matches README lines {matching}"
            assert set(columns) <= lines[matching[0]], name

    def test_run_writes_every_artifact_and_journals_no_file_list(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run(cfg)
        cycle_dir = Path(cfg.run_dir) / "cycle1"
        assert sorted(p.name for p in cycle_dir.iterdir()) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            read_jsonl(cycle_dir / name)
        entries = Journal(Path(cfg.run_dir) / "journal.json").entries
        assert [set(entry) for entry in entries] == [{"key", "status", "state"}] * 5

    def test_an_old_journal_entry_with_a_file_list_still_loads(self, tmp_path):
        path = tmp_path / "journal.json"
        entry = {"key": "cycle1:stage1", "status": "done", "artifacts": ["queries.jsonl"],
                 "state": {}}
        path.write_text(json.dumps({"entries": [entry]}))
        assert Journal(path).done("cycle1:stage1")
