import functools
import random
import re
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplay import consensus
from triplay.backends import GenerationRequest
from triplay.consensus import (
    ConsensusResult,
    ExactNormalizedJudge,
    Memo,
    RemoteJudge,
    extract_boxed,
    extract_tagged,
    majority_vote,
    normalize_answer,
    remote_judge,
)
from triplay.errors import EmptyAnswers, JudgeFailure, Transport
from triplay.rewards import probe_from_answers


def char_scan_boxed(text: str) -> str | None:
    """extract_boxed as a scan over every character: the reference its
    find-based brace walk must equal on every input."""
    box = "\\boxed{"
    result = None
    start = text.find(box)
    while start != -1:
        depth = 1
        i = start + len(box)
        while i < len(text) and depth > 0:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        if depth == 0:
            result = text[start + len(box) : i - 1]
        start = text.find(box, start + 1)
    return result


BRACE_TEXTS = st.one_of(
    st.lists(
        st.sampled_from(["\\boxed{", "\\boxed", "{", "}", "}}", "a", " 4", "\\"]),
        max_size=16,
    ).map("".join),
    st.text(alphabet="{}\\boxed ", max_size=24),
)


class TestExtractBoxed:
    @settings(max_examples=500, deadline=None)
    @given(BRACE_TEXTS)
    def test_matches_character_scan(self, text):
        assert extract_boxed(text) == char_scan_boxed(text)

    def test_simple(self):
        assert extract_boxed("thus \\boxed{42}") == "42"

    def test_last_occurrence_wins(self):
        assert extract_boxed("\\boxed{a} and later \\boxed{b}") == "b"

    def test_missing(self):
        assert extract_boxed("no box here") is None

    def test_nested_braces(self):
        assert extract_boxed("\\boxed{\\frac{1}{2}}") == "\\frac{1}{2}"

    def test_unbalanced_falls_back_to_previous(self):
        assert extract_boxed("\\boxed{ok} then \\boxed{broken") == "ok"

    def test_wrap_identity(self):
        rng = np.random.default_rng(0)
        words = "alpha beta gamma delta".split()
        for _ in range(50):
            answer = " ".join(rng.choice(words, size=3))
            assert extract_boxed(f"reasoning... \\boxed{{{answer}}}") == answer


class TestExtractTagged:
    def test_query_tag(self):
        text = "<query>bar chart with error bars</query>"
        assert extract_tagged(text, "query") == "bar chart with error bars"

    def test_missing_closing_tag(self):
        assert extract_tagged("<query>unfinished", "query") is None

    def test_type_tag(self):
        assert extract_tagged("<type>numeric_value</type>", "type") == "numeric_value"

    def test_absent(self):
        assert extract_tagged("plain text", "question") is None

    def test_trims_whitespace(self):
        assert extract_tagged("<answer>  42 </answer>", "answer") == "42"

    def test_first_occurrence(self):
        text = "<q>one</q><q>two</q>".replace("q>", "query>")
        assert extract_tagged(text, "query") == "one"


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (" 4 ", "4"),
            ("8√3.", "8√3"),
            ("1,000.0", "1000"),
            ("Square.", "square"),
            ("+5", "5"),
            ("4.0", "4"),
            ("4.50", "4.5"),
            ("two   words", "two words"),
            ("-17", "-17"),
            ("", ""),
            ("42 .", "42"),
            ("x . .", "x"),
        ],
    )
    def test_rules(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_commas_kept_in_non_numeric(self):
        assert normalize_answer("a, b") == "a, b"

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        samples = [" 4 ", "1,000.0", "Left Side.", "+0.50", "8√3."]
        for s in samples:
            once = normalize_answer(s)
            assert normalize_answer(once) == once

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(alphabet=" \t\n+-.,0123456789abcXYZ√", max_size=12), st.text()))
    def test_normalizing_twice_changes_nothing(self, raw):
        once = normalize_answer(raw)
        assert normalize_answer(once) == once

    def test_period_after_a_space_does_not_split_the_vote(self):
        # "42 ." used to normalize to "42 ", a class of its own apart from
        # "42".
        probe = probe_from_answers(["42 ."] * 5 + ["41"] * 2, ExactNormalizedJudge())
        assert probe.vote.label == "42"
        assert probe.vote.score == pytest.approx(5 / 7)
        assert probe.accuracy == pytest.approx(5 / 7)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\n+-.,0123456789abcXYZ√", max_size=12))
    def test_memo_equals_unmemoized(self, raw):
        # Asked twice, so the second answer comes from the memo.
        assert normalize_answer(raw) == normalize_answer.__wrapped__(raw)
        assert normalize_answer(raw) == normalize_answer.__wrapped__(raw)

    def test_memo_is_bounded(self):
        bound = normalize_answer.cache_info().maxsize
        for i in range(bound + 100):
            normalize_answer(f"{i},000.50")
        assert normalize_answer.cache_info().currsize <= bound


def vote_oracle(answers: list[str]) -> tuple[str, float]:
    counts = Counter(normalize_answer(a) for a in answers)
    best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return best[0], best[1] / len(answers)


class TestMajorityVote:
    def test_basic(self):
        result = majority_vote(["4", "4", "5"], ExactNormalizedJudge())
        assert result.label == "4"
        assert result.score == pytest.approx(2 / 3)

    def test_tie_break_smallest_label(self):
        result = majority_vote(["a", "b", "c"], ExactNormalizedJudge())
        assert result.label == "a"
        assert result.score == pytest.approx(1 / 3)

    def test_k9_six_equivalent(self):
        answers = ["7"] * 6 + ["8", "9", "10"]
        result = majority_vote(answers, ExactNormalizedJudge())
        assert result.score == pytest.approx(6 / 9)
        assert result.label == "7"

    def test_normalization_groups(self):
        result = majority_vote([" 4 ", "4.0", "5"], ExactNormalizedJudge())
        assert result.label == "4"
        assert result.score == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(EmptyAnswers):
            majority_vote([], ExactNormalizedJudge())

    def test_largest_class_wins(self):
        result = majority_vote(["a", "a", "b", "c", "c", "c"], ExactNormalizedJudge())
        assert (result.label, result.score) == ("c", 3 / 6)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        answers = ["4", "4.0", "5", " 4", "six", "6", "5.00"]
        base = majority_vote(answers, ExactNormalizedJudge())
        for _ in range(20):
            shuffled = list(answers)
            rng.shuffle(shuffled)
            again = majority_vote(shuffled, ExactNormalizedJudge())
            assert (again.label, again.score) == (base.label, base.score)

    def test_matches_grouping_oracle(self):
        rng = np.random.default_rng(13)
        pool = ["4", " 4 ", "4.0", "+4", "5", "5.0", "five", "1,000", "1000", "x"]
        for _ in range(300):
            k = int(rng.integers(1, 10))
            answers = [pool[i] for i in rng.integers(0, len(pool), size=k)]
            result = majority_vote(answers, ExactNormalizedJudge())
            label, score = vote_oracle(answers)
            assert result.label == label
            assert result.score == pytest.approx(score)



class KeylessJudge:
    """ExactNormalizedJudge without its key, so majority_vote asks it by the
    representative rule."""

    def equivalent(self, a: str, b: str) -> bool:
        return normalize_answer(a) == normalize_answer(b)


def value_key(answer: str):
    """An answer's numeric value, or its normal form if it has none."""
    text = normalize_answer(answer)
    try:
        return float(text)
    except ValueError:
        return text


class ValueJudge:
    """A transitive keyed judge coarser than normalization: "1" and "01"
    share a value, so they agree."""

    key = staticmethod(value_key)

    def equivalent(self, a: str, b: str) -> bool:
        return value_key(a) == value_key(b)


class TestKeyedVote:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=" .,+-0123456789aB", max_size=6), min_size=1, max_size=12))
    def test_equals_the_pairwise_closure(self, answers):
        assert majority_vote(answers, ExactNormalizedJudge()) == majority_vote(
            answers, KeylessJudge()
        )
        assert probe_from_answers(answers, ExactNormalizedJudge()) == probe_from_answers(
            answers, KeylessJudge()
        )

    def test_asks_the_judge_nothing(self, monkeypatch):
        def unasked(self, a, b):
            raise AssertionError("a keyed vote asked the judge")

        monkeypatch.setattr(ExactNormalizedJudge, "equivalent", unasked)
        result = majority_vote(["4", " 4 ", "5", "4.0", "five"], ExactNormalizedJudge())
        assert (result.label, result.score) == ("4", 3 / 5)

    def test_probe_asks_the_judge_nothing(self, monkeypatch):
        # A probe's accuracy is its vote's score: a keyed probe asks the judge
        # nothing, and a remote probe sends no request beyond its vote's.
        def unasked(self, a, b):
            raise AssertionError("a keyed probe asked the judge")

        monkeypatch.setattr(ExactNormalizedJudge, "equivalent", unasked)
        probe = probe_from_answers(["4", " 4 ", "5", "4.0", "five"], ExactNormalizedJudge())
        assert probe.accuracy == probe.vote.score == 3 / 5
        # "4", the most frequent answer, represents the first class. "five"
        # is asked against it directly, not joined to it through "5", and
        # the probe asks nothing beyond its vote's three requests.
        answers = ["5", "4", "five", "4", "7"]
        vote_backend, probe_backend = CountingJudgeBackend(), CountingJudgeBackend()
        vote = majority_vote(answers, RemoteJudge(vote_backend, question="q"))
        probe = probe_from_answers(answers, RemoteJudge(probe_backend, question="q"))
        assert (probe.vote, probe.accuracy) == (vote, 4 / 5)
        assert (vote.label, vote.score) == ("4", 4 / 5)
        assert probe_backend.asked == vote_backend.asked == Counter(
            {("4", "5"): 1, ("4", "7"): 1, ("4", "five"): 1}
        )


class SeededJudge:
    """Reflexive and symmetric but not transitive: two distinct strings are
    equivalent on a coin seeded by their unordered pair. Records every call."""

    def __init__(self, seed: int):
        self.seed = seed
        self.calls: list[tuple[str, str]] = []

    def equivalent(self, a: str, b: str) -> bool:
        self.calls.append((a, b))
        if a == b:
            return True
        lo, hi = sorted((a, b))
        return random.Random(f"{self.seed}|{lo}|{hi}").random() < 0.4


def all_pairs_vote(answers: list[str], judge) -> tuple[str, float, float]:
    """(label, score, accuracy) from the judge over all K x K
    answer pairs: classes are the closure of the full relation, and the
    accuracy is the winning class's share (0.0 for an empty label)."""
    k = len(answers)
    linked = [[judge.equivalent(a, b) for b in answers] for a in answers]
    cls = list(range(k))
    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(k):
                if linked[i][j] and cls[j] < cls[i]:
                    cls[i], changed = cls[j], True
    return ranked_vote(answers, cls)


def ranked_vote(answers: list[str], cls: list[int]) -> tuple[str, float, float]:
    """(label, score, accuracy) of answers whose class ids are cls."""
    groups: dict[int, list[str]] = {}
    for answer, c in zip(answers, cls):
        groups.setdefault(c, []).append(answer)
    ranked = sorted((-len(m), min(normalize_answer(a) for a in m)) for m in groups.values())
    label = ranked[0][1]
    score = -ranked[0][0] / len(answers)
    return label, score, score if label else 0.0


def canonical_order(answers: list[str]) -> list[str]:
    """The distinct answers by count descending, then normal form, then string."""
    counts = Counter(answers)
    return sorted(counts, key=lambda a: (-counts[a], normalize_answer(a), a))


def representatives_of(answers: list[str], judge) -> list[int]:
    """Brute-force representative rule over all K answers, copies included:
    with the full K x K verdict matrix asked up front, each answer in
    canonical order takes the class of the first representative it is
    linked to, or becomes one. The class id of each answer, by index."""
    k = len(answers)
    linked = [[judge.equivalent(a, b) for b in answers] for a in answers]
    rank = {a: r for r, a in enumerate(canonical_order(answers))}
    reps: list[int] = []
    cls = [-1] * k
    for i in sorted(range(k), key=lambda i: rank[answers[i]]):
        cls[i] = next((r for r in reps if linked[r][i]), i)
        if cls[i] == i:
            reps.append(i)
    return cls


VOTE_POOL = ["4", "four", " 4 ", "4.0", "5", "5.00", "five", "7", "seven", "x", ""]


def numeral_value(answer: str):
    """A numeral's value ("four", "IV" and "4" are 4), else value_key."""
    text = normalize_answer(answer)
    return _NUMERALS.get(text, value_key(text))


class NumeralJudge:
    """A transitive keyless judge that equates numerals of equal value."""

    def equivalent(self, a: str, b: str) -> bool:
        return numeral_value(a) == numeral_value(b)


class TestVoteOverDistinctAnswers:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(VOTE_POOL), min_size=1, max_size=12), st.integers(0, 2**16))
    def test_matches_all_pairs_reference(self, answers, seed):
        cls = representatives_of(answers, SeededJudge(seed))
        label, score, acc = ranked_vote(answers, cls)
        vote = majority_vote(answers, SeededJudge(seed))
        assert (vote.label, vote.score) == (label, score)
        probe = probe_from_answers(answers, SeededJudge(seed))
        assert probe.vote == vote
        assert probe.accuracy == acc

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(VOTE_POOL + ["IV", "VII", "1", "01"]), min_size=1, max_size=12))
    def test_transitive_judges_match_the_closure(self, answers):
        # For an equivalence relation the representative rule finds its
        # classes, which are exactly the closure of all K x K verdicts.
        for judge in (KeylessJudge(), ValueJudge(), NumeralJudge()):
            label, score, acc = all_pairs_vote(answers, judge)
            vote = majority_vote(answers, judge)
            assert (vote.label, vote.score) == (label, score)
            assert probe_from_answers(answers, judge).accuracy == acc

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(VOTE_POOL), min_size=1, max_size=12), st.integers(0, 2**16))
    def test_asks_the_per_answer_keys_once_each(self, answers, seed):
        # Each (representative, answer) key is asked at most once, and only
        # about representatives of the classes already there.
        judge = SeededJudge(seed)
        majority_vote(answers, judge)
        assert len(set(map(frozenset, judge.calls))) == len(judge.calls)
        reps = {answers[c] for c in representatives_of(answers, SeededJudge(seed))}
        order = canonical_order(answers)
        for position, answer in enumerate(order):
            before = [rep for rep in order[:position] if rep in reps]
            asked = [rep for rep, a in judge.calls if a == answer]
            assert set(asked) <= set(before)
            assert len(asked) <= len(before)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=" .,+-0123456789aB", max_size=6), min_size=1, max_size=12))
    def test_class_share_is_the_direct_agreement_count(self, answers):
        # Under a transitive judge every member of the winning class agrees
        # with the label directly, so the class share counts exactly the
        # answers a pairwise recount against the label would accept.
        for judge in (KeylessJudge(), ValueJudge()):
            probe = probe_from_answers(answers, judge)
            label = probe.vote.label
            direct = sum(judge.equivalent(a, label) for a in answers) if label else 0
            assert probe.accuracy == direct / len(answers)


class FakeJudgeBackend:
    """Returns queued replies; raises queued exceptions."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests: list[GenerationRequest] = []

    def generate(self, request: GenerationRequest) -> list[str]:
        self.requests.append(request)
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return [item]


class TestRemoteJudge:
    def test_correct_reply(self):
        backend = FakeJudgeBackend(["correct"])
        assert remote_judge(backend, "q", "4", "4.0") is True

    def test_incorrect_with_punctuation_and_case(self):
        backend = FakeJudgeBackend(["Incorrect."])
        assert remote_judge(backend, "q", "4", "5") is False

    def test_unparsable_fails_after_one_request(self):
        # At temperature 0 a second identical request would get the same reply.
        backend = FakeJudgeBackend(["maybe", "correct"])
        with pytest.raises(JudgeFailure, match="'maybe'"):
            remote_judge(backend, "q", "4", "5")
        assert len(backend.requests) == 1

    def test_transport_error_propagates_after_one_request(self):
        # The backend's HTTP client is the one retry layer; the judge adds none.
        backend = FakeJudgeBackend([Transport("boom"), "correct"])
        with pytest.raises(Transport, match="boom"):
            remote_judge(backend, "q", "a", "b")
        assert len(backend.requests) == 1

    def test_prompt_carries_all_three_slots(self):
        backend = FakeJudgeBackend(["correct"])
        remote_judge(backend, "What is y?", "8√3", "8*sqrt(3)")
        prompt = backend.requests[0].prompt
        assert "What is y?" in prompt
        assert "8√3" in prompt
        assert "8*sqrt(3)" in prompt
        assert backend.requests[0].system is not None

    def test_one_request_in_sorted_order_and_its_verdict_stands(self):
        # An asymmetric judge: the first order says incorrect, a second order
        # would say correct. The pair is asked once, in sorted order, in
        # whichever order it is passed, and that verdict stands.
        backend = FakeJudgeBackend(["incorrect", "correct"])
        judge = RemoteJudge(backend, question="q")
        assert judge.equivalent("right", "left") is False
        assert judge.equivalent("left", "right") is False
        assert len(backend.requests) == 1
        assert _JUDGE_SLOTS.search(backend.requests[0].prompt).groups() == ("left", "right")

    def test_judges_normalized_answers(self):
        # The vote asks about normalized answers, and the accuracy is its
        # winning class's share: one request in all.
        backend = FakeJudgeBackend(["incorrect"])
        probe = probe_from_answers(["Square", "Square", "Circle"], RemoteJudge(backend, "q"))
        assert (probe.vote.label, probe.accuracy) == ("square", 2 / 3)
        assert len(backend.requests) == 1
        assert _JUDGE_SLOTS.search(backend.requests[0].prompt).groups() == ("circle", "square")

    def test_symmetric_wrapper_shortcircuits_normalized_equality(self):
        backend = FakeJudgeBackend([])
        judge = RemoteJudge(backend, question="q")
        assert judge.equivalent(" 4 ", "4.0") is True
        assert backend.requests == []

    def test_vote_with_remote_judge(self):
        # Judge links "4" and "four"; closure groups them with normalization.
        class WordNumberJudge:
            def equivalent(self, a, b):
                names = {"4": "4", "four": "4", "5": "5", "five": "5"}
                return names.get(normalize_answer(a)) == names.get(normalize_answer(b))

        result = majority_vote(["4", "four", "5"], WordNumberJudge())
        assert result.score == pytest.approx(2 / 3)
        assert result.label == "4"

    def test_non_transitive_judge_does_not_chain(self):
        # "4" agrees with the representative "5", and "IV" agrees with "4"
        # but not with "5". The closure of the pairwise verdicts would make
        # one class of all four; "IV" is asked against "5" only.
        backend = CountingJudgeBackend()
        vote = majority_vote(["5", "5", "4", "IV"], RemoteJudge(backend, question="q"))
        assert (vote.label, vote.score) == ("4", 3 / 4)
        assert backend.asked == Counter({("4", "5"): 1, ("5", "iv"): 1})

    def test_skips_classes_that_can_no_longer_win(self):
        # The judge rejects every pair. Once "4" holds 6 of 10 answers, no
        # singleton class can reach it: each later answer is asked against
        # "4" alone, 4 requests where asking every class would send
        # 1 + 2 + 3 + 4 = 10, for the same label and score.
        backend = FakeJudgeBackend(["incorrect"] * 10)
        answers = ["4"] * 6 + ["5", "6", "7", "8"]
        vote = majority_vote(answers, RemoteJudge(backend, question="q"))
        assert (vote.label, vote.score) == ("4", 6 / 10)
        asked = [_JUDGE_SLOTS.search(r.prompt).groups() for r in backend.requests]
        assert asked == [("4", "5"), ("4", "6"), ("4", "7"), ("4", "8")]

    def test_a_class_that_can_tie_is_still_asked(self):
        # After "7" (2) and "4" (1), "IV" could still bring "4" level with
        # "7", and a tie goes to the smaller label, so "IV" is asked against
        # both representatives.
        backend = CountingJudgeBackend()
        vote = majority_vote(["7", "7", "4", "IV"], RemoteJudge(backend, question="q"))
        assert (vote.label, vote.score) == ("4", 2 / 4)
        assert backend.asked == Counter({("4", "7"): 1, ("7", "iv"): 1, ("4", "iv"): 1})

    def test_consensus_result_type(self):
        result = majority_vote(["x"], ExactNormalizedJudge())
        assert isinstance(result, ConsensusResult)
        assert result.score == 1.0


_NUMERALS = {"4": 4, "four": 4, "iv": 4, "5": 5, "five": 5, "7": 7, "seven": 7, "vii": 7}
_JUDGE_SLOTS = re.compile(r"Correct answer: (.*?)\. Answer to be judged: (.*?)\. Judgment result")


class CountingJudgeBackend:
    """Deterministic, order-sensitive judge: a prediction one above the gold
    numeral also counts as correct. Counts each (gold, predicted) request."""

    def __init__(self):
        self.asked: Counter = Counter()

    def generate(self, request: GenerationRequest) -> list[str]:
        gold, pred = _JUDGE_SLOTS.search(request.prompt).groups()
        self.asked[(gold, pred)] += 1
        g, p = _NUMERALS.get(normalize_answer(gold)), _NUMERALS.get(normalize_answer(pred))
        if g is None or p is None:
            ok = normalize_answer(gold) == normalize_answer(pred)
        else:
            ok = p - g in (0, 1)
        return ["correct" if ok else "incorrect"]


class UnmemoizedJudge:
    """RemoteJudge.equivalent without the verdict memo: the reference."""

    def __init__(self, backend, question: str = ""):
        self.backend = backend
        self.question = question

    def equivalent(self, a: str, b: str) -> bool:
        gold, pred = sorted((normalize_answer(a), normalize_answer(b)))
        return gold == pred or remote_judge(self.backend, self.question, gold, pred)


ANSWER_POOL = ["4", "four", "IV", " 4 ", "4.0", "5", "five", "7", "seven", "VII", "x", ""]


class TestRemoteJudgeMemo:
    def test_k9_vote_asks_each_pair_once(self):
        # The vote, then stage-3 rewards against its label.
        answers = ["four", "4", "four", "IV", "five", "5", "five", "seven", "four"]
        memo_backend, plain_backend = CountingJudgeBackend(), CountingJudgeBackend()
        memo = RemoteJudge(memo_backend, question="q")
        plain = UnmemoizedJudge(plain_backend, question="q")
        vote = majority_vote(answers, memo)
        assert vote == majority_vote(answers, plain)
        assert sum(memo.equivalent(a, vote.label) for a in answers) == sum(
            plain.equivalent(a, vote.label) for a in answers
        )
        assert max(memo_backend.asked.values()) == 1
        pairs = Counter(frozenset(key) for key in memo_backend.asked)
        assert max(pairs.values()) == 1
        assert sum(memo_backend.asked.values()) < sum(plain_backend.asked.values())

    def test_judge_failure_is_not_memoized(self):
        backend = FakeJudgeBackend(["maybe", "correct"])
        judge = RemoteJudge(backend, question="q")
        with pytest.raises(JudgeFailure):
            judge.equivalent("left", "right")
        assert judge.equivalent("right", "left") is True
        assert len(backend.requests) == 2
        assert judge.equivalent("left", "right") is True
        assert len(backend.requests) == 2

    def test_memo_is_per_judge(self):
        backend = CountingJudgeBackend()
        RemoteJudge(backend, question="q").equivalent("4", "five")
        RemoteJudge(backend, question="q").equivalent("4", "five")
        assert backend.asked[("4", "five")] == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(ANSWER_POOL), min_size=1, max_size=9).flatmap(
            lambda answers: st.tuples(st.just(answers), st.permutations(answers))
        )
    )
    def test_vote_permutation_invariant(self, case):
        answers, shuffled = case
        backend = CountingJudgeBackend()
        base = majority_vote(answers, RemoteJudge(backend, question="q"))
        again = majority_vote(shuffled, RemoteJudge(backend, question="q"))
        assert again == base
        plain = majority_vote(answers, UnmemoizedJudge(backend, question="q"))
        assert plain == base


class ThreadSafeCountingBackend(CountingJudgeBackend):
    """CountingJudgeBackend for many threads: it also counts each whole
    prompt, question included, and yields mid-request so workers overlap."""

    def __init__(self):
        super().__init__()
        self.prompts: Counter = Counter()
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> list[str]:
        time.sleep(1e-4)
        with self._lock:
            self.prompts[request.prompt] += 1
            return super().generate(request)


QUESTIONS = ("q1", "q2")


def ask_concurrently(calls, workers: int, order_seed: int, backend):
    """Each of `workers` threads asks every (question, a, b) call of a judge
    sharing one memo, in its own random order and with each pair in a random
    orientation; the verdicts each saw, by call."""
    memo = Memo(functools.partial(remote_judge, backend), consensus._VERDICT_MEMO_SIZE)
    judges = {q: RemoteJudge(backend, question=q, memo=memo) for q in QUESTIONS}
    start = threading.Barrier(workers)
    seen = [dict() for _ in range(workers)]

    def work(w: int):
        rnd = random.Random(order_seed + w)
        order = [(call, rnd.random() < 0.5) for call in rnd.sample(calls, len(calls))]
        start.wait()
        for (q, a, b), flip in order:
            seen[w][(q, a, b)] = judges[q].equivalent(b, a) if flip else judges[q].equivalent(a, b)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return seen


class TestSharedVerdictMemo:
    """An Engine hands one verdict Memo to every RemoteJudge it makes, and its
    stages ask those judges from several workers at once."""

    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(QUESTIONS),
                st.sampled_from(ANSWER_POOL),
                st.sampled_from(ANSWER_POOL),
            ),
            min_size=1,
            max_size=24,
        ),
        workers=st.sampled_from([2, 4, 8]),
        order_seed=st.integers(0, 2**16),
    )
    def test_concurrent_callers_match_unmemoized(self, calls, workers, order_seed):
        reference = CountingJudgeBackend()
        expected = {
            (q, a, b): UnmemoizedJudge(reference, question=q).equivalent(a, b)
            for q, a, b in calls
        }
        serial = ThreadSafeCountingBackend()
        ask_concurrently(calls, 1, order_seed, serial)
        backend = ThreadSafeCountingBackend()
        for seen in ask_concurrently(calls, workers, order_seed, backend):
            assert seen == expected
        assert max(backend.prompts.values(), default=1) == 1
        assert sum(backend.prompts.values()) == sum(serial.prompts.values())

    @pytest.mark.parametrize(
        "failure, error",
        [("maybe", JudgeFailure), (Transport("connection reset"), Transport)],
        ids=("unparsable", "transport"),
    )
    def test_failure_reaches_waiters_and_leaves_no_entry(self, failure, error):
        asked, release = threading.Event(), threading.Event()

        class BlockingBackend(FakeJudgeBackend):
            # Holds the first request until released, so the other callers
            # of its key find it in flight.
            def generate(self, request):
                asked.set()
                assert release.wait(timeout=10)
                return super().generate(request)

        backend = BlockingBackend([failure, "correct"])
        judge = RemoteJudge(backend, question="q")
        outcomes = []

        def call(a, b):
            try:
                outcomes.append(judge.equivalent(a, b))
            except Exception as exc:
                outcomes.append(exc)

        first = threading.Thread(target=call, args=("left", "right"))
        first.start()
        assert asked.wait(timeout=10)
        waiters = [
            threading.Thread(target=call, args=pair)
            for pair in [("left", "right"), ("right", "left")] * 2
        ]
        for thread in waiters:
            thread.start()
        time.sleep(0.2)
        release.set()
        for thread in (first, *waiters):
            thread.join()
        assert len(outcomes) == 5
        assert all(isinstance(outcome, error) for outcome in outcomes)
        assert len(backend.requests) == 1
        # No entry was left: the next call asks again, and its verdict stays.
        assert judge.equivalent("right", "left") is True
        assert len(backend.requests) == 2
        assert judge.equivalent("left", "right") is True
        assert len(backend.requests) == 2

    def test_bound_evicts_oldest_entry(self, monkeypatch):
        monkeypatch.setattr(consensus, "_VERDICT_MEMO_SIZE", 2)
        backend = CountingJudgeBackend()
        judge = RemoteJudge(backend, question="q")
        for pred in ("5", "7", "x"):
            judge.equivalent("4", pred)
        judge.equivalent("4", "x")
        assert backend.asked[("4", "x")] == 1
        judge.equivalent("4", "5")
        assert backend.asked[("4", "5")] == 2
