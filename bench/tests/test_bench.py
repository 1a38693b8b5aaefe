"""Tests of the benchmark itself: tiny-size smoke runs of every workload, the
self-time arithmetic of the span recorder, the fake endpoint, and exact
repetition of counts and artifacts across runs of one seed.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fake_endpoint  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanRecorder, covered, layer_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, work_dir, trace=False, seed=3):
    workload = workloads.WORKLOADS[name](seed, work_dir, tiny=True)
    return workloads.measure(workload, 0, trace, work_dir / "traces")


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke_emits_every_end_to_end_metric(name, tmp_path):
    result = run_tiny(name, tmp_path)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_emits_every_per_layer_metric(name, tmp_path):
    report = run_tiny(name, tmp_path, trace=True)
    result = report["result"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["orchestrator.stage1.s"] > 0
    assert metrics["consensus.majority_vote.calls"] > 0
    if name == "remote_cycle":
        assert metrics["backends.requests.judge"] > 0
        assert metrics["backends.rate_limited"] == metrics["backends.retries"]
    else:
        assert metrics["backends.requests.judge"] == 0
    spans = list((tmp_path / "traces").glob(f"{name}-seed3-traced*.json.gz"))
    assert len(spans) == 1


def test_counts_and_digests_repeat_across_runs(tmp_path):
    first = run_tiny("remote_cycle", tmp_path / "a")
    second = run_tiny("remote_cycle", tmp_path / "b")
    calls = [r["result"]["metrics"]["backend_calls"]["value"] for r in (first, second)]
    assert calls[0] == calls[1] > 0
    assert first["digest"] == second["digest"]
    assert first["result"]["attempted"] == second["result"]["attempted"]
    other_seed = run_tiny("remote_cycle", tmp_path / "c", seed=4)
    assert other_seed["digest"] != first["digest"]


def test_cycle_digest_repeats_across_runs(tmp_path):
    first = run_tiny("cycle_default", tmp_path / "a")
    second = run_tiny("cycle_default", tmp_path / "b")
    assert first["digest"] == second["digest"]


# ---------------------------------------------------------------------------
# Self time


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        (0, "outer", 0.0, 10.0, -1, None),
        (1, "inner", 1.0, 3.0, 0, {"items": 4}),
        (2, "inner", 2.0, 5.0, 0, {"items": 6}),  # overlaps span 1, as a worker thread's would
        (3, "leaf", 3.5, 4.0, 2, {"role": "judge"}),
        (4, "outer", 20.0, 21.0, -1, None),
    ]
    totals = layer_totals(spans)
    assert totals["outer"]["calls"] == 2
    assert totals["outer"]["s"] == pytest.approx(11.0)
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 4.0 + 1.0)
    assert totals["inner"]["s"] == pytest.approx(5.0)
    assert totals["inner"]["self_s"] == pytest.approx(5.0 - 0.5)
    assert totals["inner"]["items"] == 10
    assert totals["leaf"]["self_s"] == pytest.approx(0.5)
    assert totals["leaf"]["role=judge"] == 1


def test_recorder_links_parents_across_threads_and_restores_patches():
    class Box:
        def outer(self):
            self.inner()
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def inner(self):
            return 1

    recorder = SpanRecorder()
    original = Box.__dict__["outer"]
    with recorder.installed(lambda rec: (rec.patch(Box, "outer", "outer"),
                                         rec.patch(Box, "inner", "inner"))):
        Box().outer()
    assert Box.__dict__["outer"] is original
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[1], []).append(span)
    (outer,) = by_name["outer"]
    assert outer[4] == -1
    assert [span[4] for span in by_name["inner"]] == [outer[0], outer[0]]


# ---------------------------------------------------------------------------
# Fake endpoint


def test_numerals_round_trip():
    for value in range(100):
        assert fake_endpoint.numeral_value(fake_endpoint.spell(value)) == str(value)
    assert fake_endpoint.numeral_value("Forty two") == "42"
    assert fake_endpoint.numeral_value(" 42 ") == "42"
    assert fake_endpoint.numeral_value("forty banana") == "forty banana"


def test_rate_limit_hits_only_the_first_attempt_of_a_payload():
    fake = fake_endpoint.FakeEndpoint(seed=1, dimension=8, latency_s=0.0)
    url = f"{fake_endpoint.ENDPOINT}/embeddings"
    payloads = [{"model": "e", "input": f"text {i}"} for i in range(400)]
    first = [fake.post(url, json=p).status_code for p in payloads]
    limited = [p for p, status in zip(payloads, first) if status == 429]
    assert 0 < len(limited) < 30
    assert all(fake.post(url, json=p).status_code == 200 for p in limited)
    assert all(fake.post(url, json=p).status_code == 200 for p in limited)
    assert fake.rate_limited == fake.retries == len(limited)
    assert fake.requests["embed"] == 400 + 2 * len(limited)


def test_judge_treats_spelled_numerals_as_digits():
    from triplay.consensus import RemoteJudge
    from triplay.backends import HttpBackendConfig, HttpChatBackend

    fake = fake_endpoint.FakeEndpoint(seed=1, dimension=8, latency_s=0.0)
    config = HttpBackendConfig(endpoint=f"{fake_endpoint.ENDPOINT}/chat/completions",
                               model="m", backoff_base=0.0)
    with fake.installed():
        judge = RemoteJudge(HttpChatBackend(config), question="What value?")
        assert judge.equivalent("forty-two", "42")
        assert not judge.equivalent("forty-one", "42")
    assert fake.requests["judge"] >= 3


# ---------------------------------------------------------------------------
# Entry point


def test_run_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cycle_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
