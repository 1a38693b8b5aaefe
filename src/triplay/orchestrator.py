"""Three-stage iteration engine: searcher optimization and active-set
construction, questioner optimization, training-set construction with
majority-vote pseudo-labels and difficulty filtering, and solver batches.

Stages 1 and 2 and the training-set build score a question one way
(Engine._score), and every stage step returns a StepResult of artifact rows and
training batches. A step builds its Groups once (one per prompt: its samples,
rewards and advantages), and they feed both the role update, through the one
role protocol apply(groups), and the export, through _batch_records.

Runs are journaled at stage boundaries and every stage derives its RNG from
(seed, cycle, stage), so a killed run resumes to byte-identical artifacts
whenever its backends are deterministic.

In remote mode each stage fans its per-item requests out over
backend.in_flight workers (Engine._fan_out): stage 1's probes per domain
group, stage 2's question scores per image, the training-set harvest, stage
3's rollouts and rewards per step, and the active set's query retrievals.
Results are consumed, and drop warnings logged, in input order from the
calling thread. Synthetic roles draw from the stage's shared RNG, so
synthetic mode runs all of it serially.

Each distinct piece of work is done once. An Engine memoizes, per engine and
within fixed bounds, the top_k retrieval of each query text (one memo read by
stage 1 for its top-1 and by build_active_dataset in every cycle), the BLEU
n-gram table of each text, the BLEU distance of each pair of texts (scored
from the two tables), and the remote judge's verdict on each question and
pair of answers (one memo shared by every judge it makes). All four are
single-flight consensus.Memo objects that drop their oldest entry past their
bounds. build_active_dataset parses each distinct sample and retrieves each
distinct query of a domain once. The dedup and the query memo assume a
deterministic embedding backend, and the verdict memo a temperature-0 judge;
the memos hold no agent state and are not journaled. A synthetic toy-policy
role keeps each domain's action distribution until its logits change and
renders each distinct action once per draw; the offline judge's votes group
answers by normalized form instead of judging pairs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backends import (
    GenerationRequest,
    HttpChatBackend,
    HttpEmbeddingBackend,
    render_prompt,
)
from .config import (
    RunConfig,
    config_to_dict,
    resolve_run_dir,
    validate_config,
)
from .consensus import (
    _VERDICT_MEMO_SIZE,
    ExactNormalizedJudge,
    Memo,
    RemoteJudge,
    extract_boxed,
    extract_tagged,
    remote_judge,
)
from .diversity import (
    ngram_table,
    repetition_penalty,
    table_distance,
    text_repetition_penalty,
)
from .embedding_index import EmbeddingIndex, ImageRecord, _json_lines, load_manifest
from .errors import ConfigError, DimensionMismatch, EmptyIndex, JudgeFailure, ManifestError
from .grpo import (
    BatchRecord,
    action_cdf,
    domain_advantages,
    encode_row,
    group_advantages,
    log_probabilities,
    sample_actions,
    toy_policy_update,
    write_training_batch,
)
from .rewards import (
    ProbeResult,
    RewardRecord,
    difficulty_filter,
    probe_from_answers,
    solver_reward,
    uncertainty_reward,
)
from .synthetic_world import (
    INITIAL_SKILL,
    QUESTION_FORMS,
    SyntheticWorld,
    question_delta,
    synthetic_solve,
)

logger = logging.getLogger(__name__)

VALID_QUESTION_TYPES = ("short_answer", "numeric_value")


def _parse_question(text: str) -> tuple[str, str] | None:
    """(question, type) of a questioner output with a nonempty question and
    answer and a valid type, else None: every stage's one rule."""
    question, qtype = extract_tagged(text, "question"), extract_tagged(text, "type")
    if question and extract_tagged(text, "answer") and qtype in VALID_QUESTION_TYPES:
        return question, qtype
    return None


def _is_finite(value) -> bool:
    # JSON true and false are not numbers, although Python counts a bool as an int.
    return type(value) in (int, float) and math.isfinite(value)


# Entry bounds of each engine's memos: query text -> its top_k (record,
# score) pairs, whose records are the index's own, text -> its BLEU n-gram
# table, and unordered text pair -> BLEU distance. Remote query text is
# unbounded, so the memos drop their oldest entries past these sizes.
_QUERY_MEMO_SIZE = 4096
_TEXT_TABLE_MEMO_SIZE = 4096
_TEXT_PAIR_MEMO_SIZE = 16384

# Most completions one remote request asks for; a role needing more sends
# several requests.
_MAX_COMPLETIONS = 16


@dataclass
class Sample:
    """One raw agent completion, with toy-policy bookkeeping when applicable."""

    text: str
    action: int | None = None
    logp_old: float | None = None

    @property
    def token(self):
        """What a training batch exports: the toy action, else the raw text."""
        return self.text if self.action is None else self.action


@dataclass
class Group:
    """One prompt's samples with their rewards and advantages, in sample order:
    what a role learns from and what a training batch exports."""

    key: str
    domain: str
    samples: list[Sample]
    rewards: list[float]
    advantages: list[float]


# ---------------------------------------------------------------------------
# Role adapters

# The synthetic roles' learning law: both toy policies step at one rate, and
# the solver's skill moves by SOLVER_GAIN x its mean reward per stage-3 step.
TOY_LEARNING_RATE = 0.35
SOLVER_GAIN = 0.02


class _ToyPolicyRole:
    """A toy softmax policy whose samples and updates each touch only the
    rows of its logits that the subclass's _rows(domain) names.

    Each domain's (rows, log-probabilities, action_cdf) is computed on its
    first draw and kept until the logits change. apply and restore, the only
    writers of self.logits, drop them all. Draws from a kept distribution are
    the draws a fresh one gives, so the cache changes no artifact; it spares
    the questioner, which stage 1 never updates, a log-softmax per probe."""

    def __init__(self, size: int):
        self.logits = np.zeros(size)
        self._distributions: dict[str, tuple] = {}

    def _distribution(self, domain: str) -> tuple:
        dist = self._distributions.get(domain)
        if dist is None:
            rows = self._rows(domain)
            logp = log_probabilities(self.logits[rows])
            dist = self._distributions[domain] = (rows, logp.tolist(), action_cdf(logp))
        return dist

    def _draw(self, domain: str, g: int, rng: np.random.Generator, render) -> list[Sample]:
        """g samples from the domain's rows; render(row) is a sample's text."""
        rows, logp, cdf = self._distribution(domain)
        actions = sample_actions(cdf, g, rng).tolist()
        texts = {a: render(rows[a]) for a in set(actions)}
        return [Sample(text=texts[a], action=a, logp_old=logp[a]) for a in actions]

    def apply(self, groups: list[Group]) -> None:
        """One update per group, on the rows of the group's domain."""
        for group in groups:
            if not any(group.advantages):
                continue
            self._distributions.clear()
            rows = self._rows(group.domain)
            actions = np.asarray([s.action for s in group.samples])
            logp_old = np.asarray([s.logp_old for s in group.samples])
            self.logits[rows] = toy_policy_update(
                self.logits[rows], actions, logp_old, group.advantages, TOY_LEARNING_RATE
            )

    def snapshot(self) -> dict:
        return {"logits": [float(x) for x in self.logits]}

    def restore(self, state: dict) -> None:
        logits = np.asarray(state["logits"], dtype=np.float64)
        if logits.shape != self.logits.shape:
            raise ValueError(f"logits of shape {logits.shape}, expected {self.logits.shape}")
        self.logits = logits
        self._distributions.clear()


class SyntheticSearcherRole(_ToyPolicyRole):
    """Toy query policy over the world's templates, masked per domain."""

    def __init__(self, world: SyntheticWorld):
        super().__init__(len(world.templates))
        self.world = world

    def _rows(self, domain: str) -> list[int]:
        return self.world.template_indices(domain)

    def sample(self, category: str, g: int, rng: np.random.Generator) -> list[Sample]:
        def render(row: int) -> str:
            return f"<type>{category}</type>\n<query>{self.world.templates[row].text}</query>"

        return self._draw(category, g, rng, render)


class SyntheticQuestionerRole(_ToyPolicyRole):
    """Toy question policy over the fixed phrasing forms, shared by every domain."""

    def __init__(self):
        super().__init__(len(QUESTION_FORMS))
        self._forms = np.arange(len(QUESTION_FORMS))

    def _rows(self, domain: str) -> np.ndarray:
        return self._forms

    def _render(self, image: ImageRecord, form_index: int) -> str:
        _, _, question = QUESTION_FORMS[form_index]
        answer = image.meta["answer"]
        analysis = (
            f"Visible Elements: encoded panel {image.id}. Constraints: one canonical "
            f"quantity is recoverable. Step-by-Step Solution: the panel resolves to "
            f"{answer}."
        )
        return (
            f"<think>{analysis}</think>\n<type>numeric_value</type>\n"
            f"<question>{question}</question>\n<answer>{answer}</answer>"
        )

    def sample(self, image: ImageRecord, g: int, rng: np.random.Generator) -> list[Sample]:
        return self._draw(image.category, g, rng, lambda form: self._render(image, form))


class SyntheticSolverRole:
    """Parametric solver: its skill, which drifts up with the training signal."""

    def __init__(self):
        self.skill = INITIAL_SKILL

    def solve(self, image: ImageRecord, question: str, n: int, rng: np.random.Generator) -> list[str]:
        delta = question_delta(question)
        return [synthetic_solve(self.skill, image, rng, delta=delta) for _ in range(n)]

    def apply(self, groups: list[Group]) -> None:
        """Skill moves by the mean reward over every rollout of the groups."""
        rewards = [r for group in groups for r in group.rewards]
        if rewards:
            self.skill += SOLVER_GAIN * float(np.mean(rewards))

    def snapshot(self) -> dict:
        return {"skill": self.skill}

    def restore(self, state: dict) -> None:
        skill = state["skill"]
        if not _is_finite(skill):
            raise ValueError(f"skill must be a finite number, got {skill!r}")
        self.skill = float(skill)


class RemoteRole:
    """A role served by a chat backend. It keeps no trainable state: its
    batches are exported for an external trainer, not applied here."""

    def __init__(self, backend):
        self.backend = backend

    def _generate(self, role: str, n: int, image: ImageRecord | None = None, **slots) -> list[str]:
        """n completions of the role's prompt (on the image, if given), asked
        for in requests of at most _MAX_COMPLETIONS each."""
        prompt = render_prompt(role, **slots)
        image_ref = (image.uri or None) if image is not None else None
        out: list[str] = []
        for start in range(0, n, _MAX_COMPLETIONS):
            n_request = min(_MAX_COMPLETIONS, n - start)
            request = GenerationRequest(prompt=prompt, image_ref=image_ref, n=n_request)
            out += self.backend.generate(request)
        return out

    def apply(self, groups: list[Group]) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def restore(self, state: dict) -> None:
        pass


class RemoteSearcherRole(RemoteRole):
    def __init__(self, backend, exemplars: dict[str, str]):
        super().__init__(backend)
        self.exemplars = exemplars

    def sample(self, category: str, g: int, rng: np.random.Generator) -> list[Sample]:
        texts = self._generate(
            "searcher", g, category=category, sample_query=self.exemplars[category]
        )
        return [Sample(text=t) for t in texts]


class RemoteQuestionerRole(RemoteRole):
    def sample(self, image: ImageRecord, g: int, rng: np.random.Generator) -> list[Sample]:
        return [Sample(text=t) for t in self._generate("questioner", g, image)]


class RemoteSolverRole(RemoteRole):
    def solve(self, image: ImageRecord, question: str, n: int, rng: np.random.Generator) -> list[str]:
        return self._generate("solver", n, image, question=question)


# ---------------------------------------------------------------------------
# Engine


def stage_seed(seed: int, cycle: int, stage: str) -> int:
    digest = hashlib.sha256(f"{seed}:{cycle}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class StepResult:
    """One optimization step of any stage: its artifact rows and the training
    batches it exports."""

    rows: list[dict]
    batches: list[BatchRecord]


# The reward columns of a stage-1 or stage-2 row whose sample was not scored:
# an unparsable output earns reward 0 and stays in its group.
_UNSCORED = {"acc": None, "r_chal": 0.0, "p_rep": 0.0, "r_final": 0.0}


def _record_reward(row: dict, acc: float, reward: RewardRecord) -> None:
    row.update(acc=acc, r_chal=reward.challenge, p_rep=reward.penalty, r_final=reward.final)


def _batch_records(stage: str, step: int, groups: list[Group]) -> list[BatchRecord]:
    """The step's exported training rows, one per sample, in group order."""
    return [
        BatchRecord(
            prompt_id=f"{stage}:s{step}:{group.key}:{i}",
            domain=group.domain,
            tokens=[sample.token],
            reward=float(reward),
            advantage=advantage,
        )
        for group in groups
        for i, (sample, reward, advantage) in enumerate(
            zip(group.samples, group.rewards, group.advantages)
        )
    ]


# At most this many active images per stage-2 step, and items per stage-3 step.
STAGE2_IMAGES_PER_STEP = 4
STAGE3_ITEMS_PER_STEP = 4


class Engine:
    """Binds the three agent roles, the index, and the judge to one config."""

    def __init__(
        self,
        cfg: RunConfig,
        index: EmbeddingIndex,
        searcher,
        questioner,
        solver,
        embedder,
        judge_backend=None,
        world: SyntheticWorld | None = None,
    ):
        self.cfg = cfg
        self.index = index
        self.searcher = searcher
        self.questioner = questioner
        self.solver = solver
        self.embedder = embedder
        self.judge_backend = judge_backend
        self.world = world
        declared = getattr(embedder, "dimension", None)
        if declared is not None and declared != index.dimension:
            raise DimensionMismatch(
                f"embedding backend dimension {declared} != index dimension {index.dimension}"
            )
        self._ranked = Memo(self._retrieve, _QUERY_MEMO_SIZE)
        self._ngram_tables = Memo(ngram_table, _TEXT_TABLE_MEMO_SIZE)
        self._text_distance = Memo(self._table_distance, _TEXT_PAIR_MEMO_SIZE)
        self._verdicts = Memo(functools.partial(remote_judge, judge_backend), _VERDICT_MEMO_SIZE)

    def _retrieve(self, query: str) -> list[tuple[ImageRecord, float]]:
        # embed and retrieve are looked up per call, so a wrapper set after
        # the engine is built sees every request. A vector the index refuses
        # raises in retrieve, so the memo never holds one.
        return self.index.retrieve(self.embedder.embed(query), self.cfg.iteration.top_k)

    def _table_distance(self, qi: str, qj: str) -> float:
        # diversity.text_distance, from each text's memoized n-gram table.
        return table_distance(self._ngram_tables(qi), self._ngram_tables(qj))

    def _pair_distance(self, qi: str, qj: str) -> float:
        # text_distance is symmetric to the bit: one entry serves both orders.
        return self._text_distance(qi, qj) if qi <= qj else self._text_distance(qj, qi)

    def judge_for(self, question: str):
        if self.cfg.judge.kind == "remote":
            return RemoteJudge(self.judge_backend, question=question, memo=self._verdicts)
        return ExactNormalizedJudge()

    def _score(self, image: ImageRecord, question: str, n: int, rng) -> ProbeResult:
        """n solver rollouts on the question, their boxed answers voted (an
        unboxed rollout answers "")."""
        raw = self.solver.solve(image, question, n, rng)
        answers = [extract_boxed(text) or "" for text in raw]
        return probe_from_answers(answers, self.judge_for(question))

    def _fan_out(self, fn, items) -> list:
        """fn applied to each item, results in input order. Remote roles are
        stateless per request, so up to backend.in_flight calls run at once;
        synthetic roles consume the shared RNG, so they run serially."""
        items = list(items)
        workers = self.cfg.backend.in_flight if self.cfg.mode == "remote" else 1
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    def _probe(self, image: ImageRecord, n: int, rng) -> tuple[tuple[str, str], ProbeResult] | None:
        """((question, type), its score by n rollouts) for one question on the
        image; None when the questioner's output is not a well-formed question."""
        parsed = _parse_question(self.questioner.sample(image, 1, rng)[0].text)
        if parsed is None:
            return None
        return parsed, self._score(image, parsed[0], n, rng)

    def stage1_step(self, step: int, rng: np.random.Generator) -> StepResult:
        """One searcher optimization step across every domain."""
        it = self.cfg.iteration
        result = StepResult(rows=[], batches=[])
        groups: list[Group] = []
        for domain in it.domains:
            samples = self.searcher.sample(domain.category, it.group_size, rng)
            rows = [
                dict(step=step, domain=domain.category, query=None, image_id=None, **_UNSCORED)
                for _ in samples
            ]
            # Top-1 hits, each its query's first top_k entry, resolve in sample
            # order here, so memo and embed requests do not depend on the fan-out.
            queries = [extract_tagged(s.text, "query") for s in samples]
            records = [self._ranked(q)[0][0] if q else None for q in queries]
            probes = self._fan_out(
                lambda rec: self._probe(rec, it.probe_rollouts, rng) if rec is not None else None,
                records,
            )
            kept = []  # (row, image, probe)
            for row, query, record, probed in zip(rows, queries, records, probes):
                if record is None:
                    logger.warning(
                        "stage1 step %d domain %s: query tag missing, reward 0",
                        step,
                        domain.category,
                    )
                    continue
                row.update(query=query, image_id=record.id)
                if probed is None:
                    logger.warning("probe question unparsable for image %s", record.id)
                else:
                    kept.append((row, record, probed[1]))
            if kept:
                penalties = repetition_penalty(
                    [(row["query"], rec.embedding) for row, rec, _ in kept],
                    it.tau_txt, it.tau_vis, self._pair_distance,
                )
                for (row, _, probe), penalty in zip(kept, penalties):
                    _record_reward(row, probe.accuracy, uncertainty_reward(probe, penalty))
            result.rows += rows
            rewards = [row["r_final"] for row in rows]
            groups.append(Group(domain.category, domain.category, samples, rewards, []))
        # domain_advantages takes the whole step at once, so groups get theirs here.
        advantages = iter(
            domain_advantages([(row["r_final"], row["domain"]) for row in result.rows])
        )
        for group in groups:
            group.advantages = [next(advantages) for _ in group.samples]
        self.searcher.apply(groups)
        result.batches = _batch_records("stage1", step, groups)
        return result

    def build_active_dataset(self, rng: np.random.Generator) -> list[dict]:
        """Sample queries from the searcher, retrieve top-k per query, dedup by id.

        Each distinct sample text is parsed once and each distinct query of a
        domain retrieved once, in first-seen order: a repeat could add no row,
        since every id it retrieves is already in `seen`. Its top_k comes from
        the engine's query memo, so a query scores as it did in stage 1."""
        it = self.cfg.iteration
        rows: list[dict] = []
        seen: set[str] = set()
        quota = it.queries_per_iteration // len(it.domains)
        extra = it.queries_per_iteration - quota * len(it.domains)
        for d_idx, domain in enumerate(it.domains):
            count = quota + (1 if d_idx < extra else 0)
            if count == 0:
                continue
            samples = self.searcher.sample(domain.category, count, rng)
            tagged = {t: extract_tagged(t, "query") for t in {s.text for s in samples}}
            queries = []
            for s in samples:
                q = tagged[s.text]
                if q:
                    queries.append(q)
                else:
                    logger.warning("build_active: dropping unparsable query")
            if not queries:
                continue
            distinct = list(dict.fromkeys(queries))
            for query, ranked in zip(distinct, self._fan_out(self._ranked, distinct)):
                for rank, (record, score) in enumerate(ranked, start=1):
                    if record.id in seen:
                        continue
                    seen.add(record.id)
                    rows.append(
                        {
                            "image_id": record.id,
                            "category": record.category,
                            "query": query,
                            "rank": rank,
                            "score": score,
                        }
                    )
        return rows

    def stage2_step(
        self, step: int, d_active: list[dict], rng: np.random.Generator
    ) -> StepResult:
        """One questioner optimization step over a few active images."""
        it = self.cfg.iteration
        if not d_active:
            raise EmptyIndex("stage2 requires a nonempty active dataset")
        result = StepResult(rows=[], batches=[])
        groups: list[Group] = []
        n_images = min(STAGE2_IMAGES_PER_STEP, len(d_active))
        picks = rng.choice(len(d_active), size=n_images, replace=False)
        for pick in picks:
            image_id = d_active[int(pick)]["image_id"]
            image = self.index.get(image_id)
            samples = self.questioner.sample(image, it.group_size, rng)
            rows = []
            for s in samples:
                parsed = _parse_question(s.text)
                if parsed is None:
                    logger.warning(
                        "stage2 step %d image %s: malformed question output, reward 0",
                        step,
                        image_id,
                    )
                question = parsed[0] if parsed else None
                rows.append(dict(step=step, image_id=image_id, question=question, **_UNSCORED))
            kept = [row for row in rows if row["question"] is not None]
            if kept:
                penalties = text_repetition_penalty(
                    [row["question"] for row in kept], it.tau_txt, self._pair_distance
                )
                probes = self._fan_out(
                    lambda row: self._score(image, row["question"], it.probe_rollouts, rng),
                    kept,
                )
                for row, probe, penalty in zip(kept, probes, penalties):
                    _record_reward(row, probe.accuracy, uncertainty_reward(probe, penalty))
            finals = [row["r_final"] for row in rows]
            group = Group(
                key=image_id,
                domain=image.category,
                samples=samples,
                rewards=finals,
                advantages=group_advantages(finals),
            )
            # The next image's questions come from the updated policy.
            self.questioner.apply([group])
            groups.append(group)
            result.rows += rows
        result.batches = _batch_records("stage2", step, groups)
        return result

    def build_training_set(
        self, d_active: list[dict], rng: np.random.Generator
    ) -> tuple[list[dict], list[dict]]:
        """One question per active image; K rollouts; majority-vote pseudo-label;
        difficulty-window filter selects the starred subset. Each item is a
        d_train row: image_id, question, question_type, pseudo_label,
        consensus_score and accuracy."""
        it = self.cfg.iteration

        def harvest(row: dict):
            # Sample, roll out and vote on one image; the vote runs in the
            # worker so remote judge calls fan out with the rollouts.
            image = self.index.get(row["image_id"])
            try:
                return image.id, self._probe(image, it.vote_trajectories, rng)
            except JudgeFailure as exc:
                return image.id, exc

        d_train: list[dict] = []
        d_star: list[dict] = []
        for image_id, probed in self._fan_out(harvest, d_active):
            if probed is None:
                logger.warning("build_training: dropping %s (malformed question)", image_id)
                continue
            if isinstance(probed, JudgeFailure):
                logger.warning("build_training: vote aborted for %s: %s", image_id, probed)
                continue
            parsed, probe = probed
            if not probe.vote.label:
                logger.warning("build_training: dropping %s (empty consensus)", image_id)
                continue
            item = {
                "image_id": image_id,
                "question": parsed[0],
                "question_type": parsed[1],
                "pseudo_label": probe.vote.label,
                "consensus_score": probe.vote.score,
                "accuracy": probe.accuracy,
            }
            d_train.append(item)
            if difficulty_filter(probe.accuracy, it.tau_low, it.tau_high):
                d_star.append(item)
        return d_train, d_star

    def stage3_step(
        self, step: int, d_train_star: list[dict], rng: np.random.Generator
    ) -> StepResult:
        """One solver optimization step: G rollouts per item, binary rewards.
        An item is a d_train row; only its image_id, question and pseudo_label
        are read."""
        it = self.cfg.iteration
        if not d_train_star:
            return StepResult(rows=[], batches=[])
        n_items = min(STAGE3_ITEMS_PER_STEP, len(d_train_star))
        picks = rng.choice(len(d_train_star), size=n_items, replace=False)
        items = [d_train_star[int(pick)] for pick in picks]

        def rollout(item: dict):
            # G rollouts and their judged rewards; an unboxed rollout earns 0.
            image = self.index.get(item["image_id"])
            question = item["question"]
            raw = self.solver.solve(image, question, it.group_size, rng)
            judge = self.judge_for(question)
            boxed = [extract_boxed(text) for text in raw]
            return image, raw, [
                0 if b is None else solver_reward(b, item["pseudo_label"], judge) for b in boxed
            ]

        groups = [
            Group(
                key=item["image_id"],
                domain=image.category,
                samples=[Sample(text=text) for text in raw],
                rewards=rewards,
                advantages=group_advantages(rewards),
            )
            for item, (image, raw, rewards) in zip(items, self._fan_out(rollout, items))
        ]
        self.solver.apply(groups)
        rows = [
            {"step": step, "image_id": g.key, "mean_reward": float(np.mean(g.rewards))}
            for g in groups
        ]
        return StepResult(rows=rows, batches=_batch_records("stage3", step, groups))

    def snapshot(self) -> dict:
        return {
            "searcher": self.searcher.snapshot(),
            "questioner": self.questioner.snapshot(),
            "solver": self.solver.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self.searcher.restore(state["searcher"])
        self.questioner.restore(state["questioner"])
        self.solver.restore(state["solver"])


def build_engine(cfg: RunConfig) -> Engine:
    """The run's engine over its synthetic world or its manifest's index. No
    backend is contacted until a stage runs."""
    cfg = validate_config(cfg)
    if cfg.mode == "synthetic":
        world = SyntheticWorld.generate(
            seed=cfg.seed,
            count=cfg.world.count,
            dim=cfg.world.dim,
            categories=[d.category for d in cfg.iteration.domains],
        )
        return Engine(
            cfg,
            index=world.index,
            searcher=SyntheticSearcherRole(world),
            questioner=SyntheticQuestionerRole(),
            solver=SyntheticSolverRole(),
            embedder=world,
            world=world,
        )
    index = EmbeddingIndex(load_manifest(cfg.manifest_path))
    backend = HttpChatBackend(cfg.backend)
    embedder = HttpEmbeddingBackend(cfg.backend)
    exemplars = {d.category: d.exemplar for d in cfg.iteration.domains}
    return Engine(
        cfg,
        index=index,
        searcher=RemoteSearcherRole(backend, exemplars),
        questioner=RemoteQuestionerRole(backend),
        solver=RemoteSolverRole(backend),
        embedder=embedder,
        judge_backend=backend if cfg.judge.kind == "remote" else None,
    )


# ---------------------------------------------------------------------------
# Persistence


def write_jsonl(path: Path, rows: list[dict]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")
    tmp.replace(path)


_TEXT = ("a string", lambda value: type(value) is str)
_LABEL = ("a nonempty string", lambda value: type(value) is str and value != "")
_STEP = ("an integer", lambda value: type(value) is int)
_REWARD = ("a finite number or null", lambda value: value is None or _is_finite(value))
_STEP_REWARDS = {"step": _STEP, "r_chal": _REWARD, "p_rep": _REWARD, "r_final": _REWARD}

# Each cycle file, in the order run() writes it: the stage that writes it,
# and {column: (what it holds, check)} for every column a reader reads.
ARTIFACTS = {
    "queries.jsonl": ("stage1", _STEP_REWARDS),
    "searcher_batches.jsonl": ("stage1", {}),
    "d_active.jsonl": ("build_active", {"image_id": _TEXT, "category": _TEXT}),
    "questions.jsonl": ("stage2", _STEP_REWARDS),
    "questioner_batches.jsonl": ("stage2", {}),
    "d_train.jsonl": ("build_training", {"consensus_score": ("a finite number", _is_finite)}),
    "d_train_star.jsonl": (
        "build_training", {"image_id": _TEXT, "question": _TEXT, "pseudo_label": _LABEL}
    ),
    "solver_steps.jsonl": ("stage3", {"step": _STEP, "mean_reward": _REWARD}),
    "solver_batches.jsonl": ("stage3", {}),
}


def read_jsonl(path: str | Path) -> list[dict]:
    """The rows of a JSON-lines file. A line that is not a JSON object, or a
    row of an ARTIFACTS file that lacks one of its columns or holds a value
    that fails the column's check, raises ManifestError naming the file and
    line."""
    _, columns = ARTIFACTS.get(Path(path).name, (None, {}))
    rows = []
    for lineno, row in _json_lines(path):
        if not isinstance(row, dict):
            raise ManifestError(f"{path}:{lineno}: a row must be a JSON object")
        for column, (what, check) in columns.items():
            if column not in row:
                raise ManifestError(f"{path}:{lineno}: a row lacks the {column!r} column")
            if not check(row[column]):
                raise ManifestError(
                    f"{path}:{lineno}: the {column!r} column must hold {what}, "
                    f"not {row[column]!r}"
                )
        rows.append(row)
    return rows


class Journal:
    """Single-writer journal of completed stages. Each entry carries the agent
    state after its stage, and writing the entry is the stage's commit point:
    a run killed before it redoes the stage from the previous entry's state.
    A journal that is not JSON, has no entries list, or has an entry that is
    not an object with a string key and an object state, raises ManifestError
    naming the file."""

    def __init__(self, path: Path):
        self.path = path
        self.entries: list[dict] = []
        if path.exists():
            try:
                journal = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}: not valid JSON: {exc}") from None
            if not isinstance(journal, dict) or not isinstance(journal.get("entries"), list):
                raise ManifestError(f"{path}: a journal needs an entries list")
            for entry in journal["entries"]:
                if not (
                    isinstance(entry, dict)
                    and isinstance(entry.get("key"), str)
                    and isinstance(entry.get("state"), dict)
                ):
                    raise ManifestError(
                        f"{path}: a journal entry needs a string key and an object state"
                    )
            self.entries = journal["entries"]

    def done(self, key: str) -> bool:
        return any(e["key"] == key and e.get("status") == "done" for e in self.entries)

    def mark(self, key: str, state: dict) -> None:
        entry = {"key": key, "status": "done", "state": state}
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"entries": self.entries + [entry]}, indent=2))
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        self.entries.append(entry)


# config.json's top-level run_dir line: where a run lives, not how it runs.
_RUN_DIR_LINE = re.compile(r'^  "run_dir": .*$', re.MULTILINE)


def _run_steps(steps: int, step_fn, *args) -> tuple[list[dict], list[BatchRecord]]:
    """Call step_fn(step, *args) for each step; concatenated rows and batches."""
    rows: list[dict] = []
    batches: list[BatchRecord] = []
    for step in range(steps):
        result = step_fn(step, *args)
        rows.extend(result.rows)
        batches.extend(result.batches)
    return rows, batches


def run(cfg: RunConfig) -> dict:
    """Execute cycles x (stage1 -> build_active -> stage2 -> build_training ->
    stage3), journaling at stage boundaries; reruns resume from the journal.

    The engine is built before the run directory is made, so a config it
    refuses leaves no directory behind. config.json is written only while
    the journal is empty. A run with journal entries resumes only under the
    config it started with, run_dir aside, so a copied or moved run resumes;
    any other config raises ConfigError.
    """
    cfg = validate_config(cfg)
    run_dir = resolve_run_dir(cfg)
    config_path = run_dir / "config.json"
    config_text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    engine = build_engine(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    journal = Journal(run_dir / "journal.json")
    if not journal.entries:
        config_path.write_text(config_text)
    elif _RUN_DIR_LINE.sub("", config_path.read_text()) != _RUN_DIR_LINE.sub("", config_text):
        raise ConfigError(
            f"{run_dir} holds a run started under a different config; resume it "
            f"with that config or choose another run directory"
        )
    if journal.entries:
        try:
            engine.restore(journal.entries[-1]["state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(
                f"{journal.path}: the last entry's state does not fit this engine: {exc!r}"
            ) from None

    it = cfg.iteration

    # name -> stage fn: it takes (rng, cycle_dir) and returns one payload per
    # file ARTIFACTS gives the stage; *_batches.jsonl payloads are batch
    # records. Engine methods are looked up when a stage runs.
    stages = {
        "stage1": lambda rng, _: _run_steps(it.searcher_steps, engine.stage1_step, rng),
        "build_active": lambda rng, _: (engine.build_active_dataset(rng),),
        "stage2": lambda rng, cycle_dir: _run_steps(
            it.questioner_steps, engine.stage2_step, read_jsonl(cycle_dir / "d_active.jsonl"), rng
        ),
        "build_training": lambda rng, cycle_dir: engine.build_training_set(
            read_jsonl(cycle_dir / "d_active.jsonl"), rng
        ),
        "stage3": lambda rng, cycle_dir: _run_steps(
            it.solver_steps, engine.stage3_step, read_jsonl(cycle_dir / "d_train_star.jsonl"), rng
        ),
    }
    for cycle in range(1, it.cycles + 1):
        cycle_dir = run_dir / f"cycle{cycle}"
        cycle_dir.mkdir(exist_ok=True)
        for name, stage in stages.items():
            key = f"cycle{cycle}:{name}"
            if not journal.done(key):
                rng = np.random.default_rng(stage_seed(cfg.seed, cycle, name))
                artifacts = [file for file, (writer, _) in ARTIFACTS.items() if writer == name]
                for artifact, payload in zip(artifacts, stage(rng, cycle_dir), strict=True):
                    if artifact.endswith("_batches.jsonl"):
                        write_training_batch(payload, cycle_dir / artifact)
                    else:
                        write_jsonl(cycle_dir / artifact, payload)
                journal.mark(key, engine.snapshot())

    report = compute_stats(cfg, run_dir)
    stats_path = run_dir / "stats.json"
    stats_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return {
        "run_dir": str(run_dir),
        "stats_path": str(stats_path),
        "cycles": it.cycles,
        "dataset_sizes": {
            cycle_block["cycle"]: cycle_block["dataset_sizes"]
            for cycle_block in report["cycles"]
        },
    }


# ---------------------------------------------------------------------------
# Statistics


def consensus_histogram(items: list[dict], k: int) -> dict:
    """K+1 bins over consensus scores {0/K ... K/K}; counts sum to the item count."""
    counts = [0] * (k + 1)
    for item in items:
        bin_index = int(round(item["consensus_score"] * k))
        counts[min(max(bin_index, 0), k)] += 1
    return {
        "k": k,
        "bins": [f"{i}/{k}" for i in range(k + 1)],
        "counts": counts,
        "total": len(items),
    }


def category_distribution(d_active: list[dict]) -> dict:
    """Each category's share of the active set's rows."""
    counts = Counter(row["category"] for row in d_active)
    return {cat: counts[cat] / len(d_active) for cat in sorted(counts)}


def _series(rows: list[dict], fields_: tuple[str, ...]) -> list[dict]:
    by_step: dict[int, list[dict]] = {}
    for row in rows:
        by_step.setdefault(row["step"], []).append(row)
    out = []
    for step in sorted(by_step):
        entry: dict = {"step": step}
        for name in fields_:
            values = [r[name] for r in by_step[step] if r.get(name) is not None]
            entry[name] = float(np.mean(values)) if values else None
        out.append(entry)
    return out


def compute_stats(cfg: RunConfig, run_dir: str | Path) -> dict:
    """Machine-readable report: per-cycle consensus histogram, category shares
    over the active set, and reward time series for all three stages. It reads
    only cfg (a run's config.json) and the cycle artifacts: no world, index
    or backend."""
    run_dir = Path(run_dir)
    cycles = []
    for cycle in range(1, cfg.iteration.cycles + 1):
        cycle_dir = run_dir / f"cycle{cycle}"
        if not cycle_dir.exists():
            continue
        d_active, d_train, d_star, queries, questions, solver_rows = (
            read_jsonl(cycle_dir / name) if (cycle_dir / name).exists() else []
            for name in ("d_active.jsonl", "d_train.jsonl", "d_train_star.jsonl",
                         "queries.jsonl", "questions.jsonl", "solver_steps.jsonl")
        )
        rewards = ("r_chal", "p_rep", "r_final")
        cycles.append(
            {
                "cycle": cycle,
                "consensus_histogram": consensus_histogram(
                    d_train, cfg.iteration.vote_trajectories
                ),
                "category_distribution": category_distribution(d_active),
                "reward_series": {
                    "searcher": _series(queries, rewards),
                    "questioner": _series(questions, rewards),
                    "solver": _series(solver_rows, ("mean_reward",)),
                },
                "dataset_sizes": {
                    "d_active": len(d_active),
                    "d_train": len(d_train),
                    "d_train_star": len(d_star),
                },
            }
        )
    return {"cycles": cycles}
