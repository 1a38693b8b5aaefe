import json
import logging
import shutil
from pathlib import Path

import pytest

from triplay import orchestrator
from triplay.cli import RUN_FLAGS, main
from triplay.orchestrator import Sample, SyntheticSearcherRole, read_jsonl
from triplay.synthetic_world import SyntheticWorld

from conftest import Stopped, assert_same_artifacts, end_run_after


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def manifest(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    code, _, _ = run_cli(
        capsys,
        [
            "synth",
            "gen",
            "--out",
            str(path),
            "--seed",
            "3",
            "--count",
            "200",
            "--dim",
            "16",
            "--categories",
            "charts,diagrams",
        ],
    )
    assert code == 0
    return path


class TestIndexCommands:
    def test_build_summary(self, manifest, capsys):
        code, out, _ = run_cli(capsys, ["index", "build", "--manifest", str(manifest)])
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 200
        assert summary["dimension"] == 16
        assert len(summary["checksum"]) == 64

    def test_search(self, manifest, tmp_path, capsys):
        rows = read_jsonl(manifest)[1:]
        query_file = tmp_path / "queries.jsonl"
        query_file.write_text(json.dumps(rows[0]["embedding"]) + "\n")
        code, out, _ = run_cli(
            capsys,
            ["index", "search", "--manifest", str(manifest), "--query-file", str(query_file), "--k", "3"],
        )
        assert code == 0
        results = [json.loads(line) for line in out.splitlines()]
        assert len(results) == 3
        assert results[0]["id"] == rows[0]["id"]
        assert results[0]["rank"] == 1
        scores = [r["score"] for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_search_accepts_embedding_objects(self, manifest, tmp_path, capsys):
        rows = read_jsonl(manifest)[1:]
        query_file = tmp_path / "queries.jsonl"
        query_file.write_text(json.dumps({"embedding": rows[5]["embedding"]}) + "\n")
        code, out, _ = run_cli(
            capsys,
            ["index", "search", "--manifest", str(manifest), "--query-file", str(query_file), "--k", "1"],
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["id"] == rows[5]["id"]

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["index", "build", "--manifest", str(tmp_path / "nope.jsonl")]
        )
        assert code == 1
        assert "error[" in err

    def test_malformed_manifest_exits_one(self, tmp_path, capsys):
        # Unchecked, a non-JSON line ended in a raw JSONDecodeError traceback.
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        code, out, err = run_cli(capsys, ["index", "build", "--manifest", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error[ManifestError]: {path}:1: not valid JSON")
        assert err.count("\n") == 1

    def test_negative_dimension_exits_one(self, tmp_path, capsys):
        # Unchecked, np.zeros((0, -1)) ended in a raw ValueError traceback.
        path = tmp_path / "m.jsonl"
        path.write_text('{"dimension": -1, "count": 0}\n')
        code, out, err = run_cli(capsys, ["index", "build", "--manifest", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error[ManifestError]: {path}: header dimension -1 is below 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("not json", "not valid JSON"),
            ('{"vec": [1, 2]}', "the embedding is not a list of numbers"),
            ('["a", "b"]', "the embedding is not a list of numbers"),
            ("[true, false]", "the embedding is not a list of numbers"),
        ],
        ids=("not_json", "no_embedding_key", "strings", "booleans"),
    )
    def test_malformed_query_file_exits_one(self, manifest, tmp_path, capsys, line, message):
        # Unchecked, these lines ended in a raw JSONDecodeError, KeyError or
        # ValueError traceback, or (booleans) searched for [1.0, 0.0].
        query_file = tmp_path / "queries.jsonl"
        query_file.write_text("\n" + line + "\n")
        code, out, err = run_cli(
            capsys,
            ["index", "search", "--manifest", str(manifest), "--query-file", str(query_file), "--k", "1"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error[ManifestError]: {query_file}:2: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=("nan", "inf"))
    def test_non_finite_query_exits_one(self, manifest, tmp_path, capsys, bad):
        # JSON parses NaN and Infinity. Unchecked, such a query was searched
        # and every score printed as NaN.
        embedding = read_jsonl(manifest)[1]["embedding"]
        embedding[0] = bad
        query_file = tmp_path / "queries.jsonl"
        query_file.write_text(json.dumps(embedding) + "\n")
        code, out, err = run_cli(
            capsys,
            ["index", "search", "--manifest", str(manifest), "--query-file", str(query_file), "--k", "1"],
        )
        assert (code, out) == (1, "")
        assert err == f"error[ZeroVector]: query: embedding norm is {bad}, not finite\n"


class TestSynthGen:
    def test_seed_reproducible(self, tmp_path, capsys):
        args = lambda out: [
            "synth", "gen", "--out", out, "--seed", "5", "--count", "50",
            "--dim", "16", "--categories", "charts,diagrams",
        ]
        assert run_cli(capsys, args(str(tmp_path / "a.jsonl")))[0] == 0
        assert run_cli(capsys, args(str(tmp_path / "b.jsonl")))[0] == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


RUN_ARGS = [
    "--synthetic",
    "--seed",
    "3",
    "--cycles",
    "1",
    "--queries",
    "40",
    "--searcher-steps",
    "2",
    "--questioner-steps",
    "2",
    "--solver-steps",
    "2",
    "--world-count",
    "400",
]


class TestRunCommand:
    def test_full_loop(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, ["run", "--run-dir", str(run_dir)] + RUN_ARGS
        )
        assert code == 0
        report = json.loads(out)
        assert Path(report["stats_path"]).exists()
        for name in ("queries", "d_active", "d_train", "d_train_star"):
            assert (run_dir / "cycle1" / f"{name}.jsonl").exists()

    def test_seed_bit_reproducible(self, tmp_path, capsys):
        code_a, _, _ = run_cli(capsys, ["run", "--run-dir", str(tmp_path / "a")] + RUN_ARGS)
        code_b, _, _ = run_cli(capsys, ["run", "--run-dir", str(tmp_path / "b")] + RUN_ARGS)
        assert code_a == code_b == 0
        a = (tmp_path / "a" / "cycle1" / "d_train.jsonl").read_bytes()
        b = (tmp_path / "b" / "cycle1" / "d_train.jsonl").read_bytes()
        assert a == b

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "mode": "synthetic",
            "seed": 11,
            "world": {"count": 400, "dim": 32},
            "iteration": {
                "cycles": 1,
                "queries_per_iteration": 30,
                "searcher_steps": 1,
                "questioner_steps": 1,
                "solver_steps": 1,
                "group_size": 4,
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            ["run", "--config", str(config_path), "--run-dir", str(run_dir), "--seed", "12"],
        )
        assert code == 0
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved["seed"] == 12  # flag wins
        assert saved["iteration"]["group_size"] == 4  # file value kept

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            ("garbage", "not valid JSON"),
            ('{"entries": 3}', "a journal needs an entries list"),
            ("[]", "a journal needs an entries list"),
            ('{"entries": [{}]}', "a journal entry needs a string key and an object state"),
            (
                '{"entries": [{"key": "cycle1:stage1"}]}',
                "a journal entry needs a string key and an object state",
            ),
            ('{"entries": [3]}', "a journal entry needs a string key and an object state"),
            (
                '{"entries": [{"key": 1, "state": {}}]}',
                "a journal entry needs a string key and an object state",
            ),
        ],
        ids=(
            "not_json", "entries_not_a_list", "not_an_object", "empty_entry", "no_state",
            "entry_not_an_object", "int_key",
        ),
    )
    def test_corrupt_journal_exits_one(self, tmp_path, capsys, content, message):
        # Unchecked, these ended in a raw JSONDecodeError, TypeError or
        # KeyError traceback.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        journal = run_dir / "journal.json"
        journal.write_text(content)
        code, out, err = run_cli(capsys, ["run", "--run-dir", str(run_dir)] + RUN_ARGS)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error[ManifestError]: {journal}: {message}")
        assert err.count("\n") == 1
        assert journal.read_text() == content

    @pytest.mark.parametrize(
        "state",
        [
            {},
            {"searcher": {"logits": [0.0]}, "questioner": {"logits": []}, "solver": {"skill": 1}},
            {"searcher": "logits", "questioner": {}, "solver": {}},
            {"searcher": {"logits": ["x"]}, "questioner": {}, "solver": {}},
        ],
        ids=("no_roles", "logits_of_another_shape", "role_not_an_object", "string_logits"),
    )
    def test_journal_state_that_does_not_fit_exits_one(
        self, tmp_path, capsys, monkeypatch, state
    ):
        # Unchecked, these ended in a raw KeyError, TypeError or ValueError
        # traceback from the restore, or resumed from misshapen logits.
        run_dir = tmp_path / "run"
        argv = ["run", "--run-dir", str(run_dir)] + RUN_ARGS
        end_run_after(monkeypatch, "cycle1:stage1")
        with pytest.raises(Stopped):
            main(argv)
        journal = run_dir / "journal.json"
        entries = json.loads(journal.read_text())["entries"]
        entries[-1]["state"] = state
        journal.write_text(json.dumps({"entries": entries}))
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"error[ManifestError]: {journal}: the last entry's state does not fit this engine"
        )
        assert err.count("\n") == 1
        assert not (run_dir / "cycle1" / "d_active.jsonl").exists()

    @pytest.mark.parametrize(
        "skill", [float("nan"), float("inf"), float("-inf"), True, "0.5"],
        ids=("nan", "inf", "minus_inf", "true", "string"),
    )
    def test_journal_skill_that_is_not_a_finite_number_exits_one(
        self, tmp_path, capsys, monkeypatch, skill
    ):
        # Unchecked, a NaN or infinite skill resumed with exit 0 and solved
        # every later question with probability NaN, 0 or 1.
        run_dir = tmp_path / "run"
        argv = ["run", "--run-dir", str(run_dir)] + RUN_ARGS
        end_run_after(monkeypatch, "cycle1:stage1")
        with pytest.raises(Stopped):
            main(argv)
        journal = run_dir / "journal.json"
        entries = json.loads(journal.read_text())["entries"]
        entries[-1]["state"]["solver"]["skill"] = skill
        journal.write_text(json.dumps({"entries": entries}))
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"error[ManifestError]: {journal}: the last entry's state does not fit this engine"
        )
        assert "skill must be a finite number" in err
        assert err.count("\n") == 1

    def test_resume_under_changed_config_refused(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        argv = ["run", "--run-dir", str(run_dir)] + RUN_ARGS
        end_run_after(monkeypatch, "cycle1:stage1")
        with pytest.raises(Stopped):
            main(argv)
        config_before = (run_dir / "config.json").read_bytes()
        code, _, err = run_cli(capsys, argv + ["--group-size", "4"])
        assert code == 1
        assert "error[ConfigError]" in err
        assert str(run_dir) in err
        assert (run_dir / "config.json").read_bytes() == config_before
        assert not (run_dir / "cycle1" / "d_active.jsonl").exists()

    def test_copied_run_directory_resumes_byte_identical(self, tmp_path, capsys, monkeypatch):
        # config.json records run_dir, which says where a run lives, not how
        # it runs; a copied run directory used to be refused for it.
        args = RUN_ARGS + ["--seed", "7"]
        whole, stopped, copy = tmp_path / "whole", tmp_path / "stopped", tmp_path / "copy"
        assert run_cli(capsys, ["run", "--run-dir", str(whole)] + args)[0] == 0
        end_run_after(monkeypatch, "cycle1:build_training")
        with pytest.raises(Stopped):
            main(["run", "--run-dir", str(stopped)] + args)
        shutil.copytree(stopped, copy)
        changed = ["run", "--run-dir", str(copy)] + args + ["--group-size", "4"]
        code, _, err = run_cli(capsys, changed)
        assert code == 1
        assert err.startswith(f"error[ConfigError]: {copy} holds a run started under")
        assert not (copy / "cycle1" / "solver_steps.jsonl").exists()
        assert run_cli(capsys, ["run", "--run-dir", str(copy)] + args)[0] == 0
        assert_same_artifacts(whole, copy)
        assert (copy / "config.json").read_bytes() == (stopped / "config.json").read_bytes()

    @pytest.mark.parametrize(
        ("stop_key", "artifact", "row", "message"),
        [
            ("cycle1:build_training", "d_train_star.jsonl", {"image_id": "x"},
             ":1: a row lacks the 'question' column"),
            ("cycle1:build_active", "d_active.jsonl", {}, ":1: a row lacks the 'image_id' column"),
            ("cycle1:build_active", "d_active.jsonl", {"image_id": "nope", "category": "charts"},
             "no image 'nope' in the index"),
            ("cycle1:build_active", "d_active.jsonl", {"image_id": "x"},
             ":1: a row lacks the 'category' column"),
            ("cycle1:build_training", "d_train_star.jsonl",
             {"image_id": "x", "question": "q", "pseudo_label": ""},
             "the 'pseudo_label' column must hold a nonempty string"),
        ],
        ids=("star_row_lacks_question", "active_row_lacks_image_id", "unknown_image_id",
             "active_row_lacks_category", "star_row_empty_label"),
    )
    def test_resume_over_a_broken_row_exits_one(
        self, tmp_path, capsys, monkeypatch, stop_key, artifact, row, message
    ):
        # Unchecked, these ended in a raw TypeError, KeyError or (an empty
        # label, from the solver reward) ValueError traceback from the next stage.
        run_dir = tmp_path / "run"
        argv = ["run", "--run-dir", str(run_dir)] + RUN_ARGS
        end_run_after(monkeypatch, stop_key)
        with pytest.raises(Stopped):
            main(argv)
        path = run_dir / "cycle1" / artifact
        path.write_text(json.dumps(row) + "\n")
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error[ManifestError]: ")
        assert message in err
        assert err.count("\n") == 1
        assert not (run_dir / "stats.json").exists()

    @pytest.mark.parametrize("content", ["garbage", "[1]"], ids=("not_json", "not_an_object"))
    def test_resume_under_unreadable_config_json_refused(
        self, tmp_path, capsys, monkeypatch, content
    ):
        run_dir = tmp_path / "run"
        argv = ["run", "--run-dir", str(run_dir)] + RUN_ARGS
        end_run_after(monkeypatch, "cycle1:stage1")
        with pytest.raises(Stopped):
            main(argv)
        (run_dir / "config.json").write_text(content)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[ConfigError]: {run_dir} holds a run started under")
        assert (run_dir / "config.json").read_text() == content

    def test_every_run_flag_sets_its_config_value(self, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(orchestrator, "run", lambda cfg: runs.append(cfg) or {})
        text = {int: "50", float: "0.45", str: "runs/flag"}
        for flag, section, key, type_, _ in RUN_FLAGS:
            assert main(["run", flag, text[type_]]) == 0, flag
            target = getattr(runs[-1], section) if section else runs[-1]
            assert getattr(target, key) == type_(text[type_]), flag

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{not json", "not valid JSON"),
            ('{"iteration": {"group_size": "8"}}', "iteration.group_size must be an integer"),
            (
                '{"iteration": {"domains": [{"category": "charts"}]}}',
                "'iteration.domains[0]' is missing exemplar",
            ),
            ('{"grpo": {"eps_low": 0.2}}', "unknown key(s) in config: grpo"),
        ],
        ids=("not_json", "string_group_size", "domain_without_exemplar", "removed_grpo_section"),
    )
    def test_malformed_config_exits_one(self, tmp_path, capsys, content, message):
        # Unchecked, these ended in a raw JSONDecodeError or TypeError traceback.
        config_path = tmp_path / "config.json"
        config_path.write_text(content)
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, ["run", "--config", str(config_path), "--run-dir", str(run_dir)]
        )
        assert code == 1
        assert err.startswith("error[ConfigError]: ")
        assert err.count("\n") == 1
        assert message in err
        assert out == ""
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            (None, ["--synthetic", "--world-count", "0"],
             "error[ConfigError]: count must be >= 1, got 0"),
            (None, ["--synthetic", "--tau-txt", "nan"],
             "error[ConfigError]: clustering thresholds must be >= 0: tau_txt=nan"),
            (None, ["--synthetic", "--tau-vis", "nan"],
             "error[ConfigError]: clustering thresholds must be >= 0: tau_txt=0.5, tau_vis=nan"),
            (
                {
                    "mode": "remote",
                    "manifest_path": "MANIFEST",
                    "backend": {
                        "endpoint": "http://localhost:9/chat",
                        "model": "m",
                        "embedding_endpoint": "http://localhost:9/embed",
                        "embedding_model": "e",
                    },
                },
                [],
                "error[ManifestError]: ",
            ),
        ],
        ids=("world_count_zero", "tau_txt_nan", "tau_vis_nan", "remote_bad_manifest"),
    )
    def test_config_refused_by_the_engine_leaves_no_run_dir(
        self, tmp_path, capsys, config, flags, message
    ):
        # The engine is built before the run directory is made, so a config
        # it refuses leaves neither the directory nor a config.json behind.
        argv = ["run", "--run-dir", str(tmp_path / "run")] + flags
        if config is not None:
            manifest = tmp_path / "corpus.jsonl"
            manifest.write_text("not json\n")
            config["manifest_path"] = str(manifest)
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            argv += ["--config", str(config_path)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_inverted_window_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["run", "--run-dir", str(tmp_path / "r"), "--synthetic", "--tau-low", "0.9"],
        )
        assert code == 1
        assert "error[ConfigError]" in err
        assert "tau_low" in err

    def test_synthetic_mode_with_remote_judge_refused(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": "synthetic", "judge": {"kind": "remote"}}))
        run_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, ["run", "--config", str(config_path), "--run-dir", str(run_dir)]
        )
        assert code == 1
        assert "error[ConfigError]" in err
        assert "judge.kind" in err
        assert out == ""
        assert not run_dir.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": "synthetic", "bogus": 1}))
        code, _, err = run_cli(capsys, ["run", "--config", str(config_path)])
        assert code == 1
        assert "bogus" in err


class TestLogLevel:
    @pytest.mark.parametrize("level, shown", [("WARNING", True), ("ERROR", False)])
    def test_build_active_drop_warning(self, tmp_path, capsys, monkeypatch, level, shown):
        sample = SyntheticSearcherRole.sample

        def one_untagged(self, category, g, rng):
            return [Sample(text="no query tag")] + sample(self, category, g, rng)[1:]

        monkeypatch.setattr(SyntheticSearcherRole, "sample", one_untagged)
        end_run_after(monkeypatch, "cycle1:build_active")
        argv = ["--log-level", level, "run", "--run-dir", str(tmp_path / "run")]
        argv += RUN_ARGS + ["--searcher-steps", "0"]
        # basicConfig configures only a root logger without handlers, and the
        # test runner has put its own there; set them aside for the call.
        root = logging.getLogger()
        handlers, root_level = root.handlers[:], root.level
        root.handlers.clear()
        try:
            with pytest.raises(Stopped):
                main(argv)
        finally:
            root.handlers[:] = handlers
            root.setLevel(root_level)
        err = capsys.readouterr().err
        assert ("build_active: dropping unparsable query" in err) == shown


class TestDatasetCommands:
    @pytest.fixture()
    def finished_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, ["run", "--run-dir", str(run_dir)] + RUN_ARGS)
        assert code == 0
        return run_dir

    def test_filter(self, tmp_path, capsys):
        rows = [
            {"image_id": "a", "question": "q", "question_type": "numeric_value",
             "pseudo_label": "1", "consensus_score": 0.5, "accuracy": 0.5},
            {"image_id": "b", "question": "q", "question_type": "numeric_value",
             "pseudo_label": "1", "consensus_score": 0.9, "accuracy": 0.9},
            {"image_id": "c", "question": "q", "question_type": "numeric_value",
             "pseudo_label": "1", "consensus_score": 0.3, "accuracy": 0.3},
        ]
        src = tmp_path / "d_train.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in rows))
        dst = tmp_path / "d_train_star.jsonl"
        code, out, _ = run_cli(
            capsys,
            ["dataset", "filter", "--input", str(src), "--output", str(dst),
             "--low", "0.3", "--high", "0.8"],
        )
        assert code == 0
        kept = read_jsonl(dst)
        assert [r["image_id"] for r in kept] == ["a"]
        assert json.loads(out) == {"input": 3, "kept": 1}

    @pytest.mark.parametrize(
        ("text", "window", "message"),
        [
            ('{"accuracy": 0.5}\nnot json\n', [], ":2: not valid JSON"),
            ('{"accuracy": 0.5}\n{"image_id": "a"}\n', [], ":2: a row needs a numeric accuracy"),
            ('{"accuracy": "0.5"}\n', [], ":1: a row needs a numeric accuracy"),
            ('{"accuracy": true}\n', [], ":1: a row needs a numeric accuracy"),
            ("", ["--low", "0.8", "--high", "0.3"], "invalid window (0.8, 0.3)"),
            ('{"accuracy": 0.5}\n{"accuracy": NaN}\n', [], ":2: a row needs a numeric accuracy in [0, 1]"),
            ('{"accuracy": 1.5}\n', [], ":1: a row needs a numeric accuracy in [0, 1]"),
        ],
        ids=("not_json", "no_accuracy", "string_accuracy", "boolean_accuracy",
             "inverted_window_on_empty_input", "nan_accuracy", "accuracy_above_one"),
    )
    def test_filter_bad_input_exits_one(self, tmp_path, capsys, text, window, message):
        # Unchecked, these ended in a raw JSONDecodeError, KeyError or
        # TypeError traceback, read true as accuracy 1, dropped a NaN or
        # out-of-range accuracy without a word, or (an inverted window on an
        # empty input) exited 0.
        src = tmp_path / "d_train.jsonl"
        src.write_text(text)
        dst = tmp_path / "d_train_star.jsonl"
        code, out, err = run_cli(
            capsys, ["dataset", "filter", "--input", str(src), "--output", str(dst)] + window
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error[")
        assert message in err
        assert err.count("\n") == 1
        assert not dst.exists()

    def test_report_on_corrupted_artifact_exits_one(self, finished_run, capsys):
        queries = finished_run / "cycle1" / "queries.jsonl"
        lineno = len(queries.read_text().splitlines()) + 1
        with open(queries, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        code, out, err = run_cli(capsys, ["report", "--run-dir", str(finished_run)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error[ManifestError]: {queries}:{lineno}: not valid JSON")
        assert err.count("\n") == 1

    def test_report_on_non_object_row_exits_one(self, finished_run, capsys):
        # Unchecked, a row that is JSON but not an object ended in a raw
        # TypeError traceback from the stats.
        queries = finished_run / "cycle1" / "queries.jsonl"
        lineno = len(queries.read_text().splitlines()) + 1
        with open(queries, "a", encoding="utf-8") as fh:
            fh.write("[1]\n")
        code, out, err = run_cli(capsys, ["report", "--run-dir", str(finished_run)])
        assert code == 1
        assert out == ""
        assert err == (
            f"error[ManifestError]: {queries}:{lineno}: a row must be a JSON object\n"
        )

    @pytest.mark.parametrize(
        ("artifact", "column"),
        [
            ("d_train.jsonl", "consensus_score"),
            ("d_active.jsonl", "image_id"),
            ("queries.jsonl", "step"),
            ("solver_steps.jsonl", "step"),
        ],
        ids=("d_train", "d_active", "queries", "solver_steps"),
    )
    def test_report_on_row_lacking_a_column_exits_one(
        self, finished_run, capsys, artifact, column
    ):
        # Unchecked, an object row without a column the stats read ended in a
        # raw KeyError traceback.
        path = finished_run / "cycle1" / artifact
        lineno = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{}\n")
        code, out, err = run_cli(capsys, ["report", "--run-dir", str(finished_run)])
        assert (code, out) == (1, "")
        assert err == f"error[ManifestError]: {path}:{lineno}: a row lacks the {column!r} column\n"

    @pytest.mark.parametrize(
        ("artifact", "row", "column", "what"),
        [
            ("d_train.jsonl", '{"consensus_score": "0.5"}', "consensus_score", "a finite number"),
            ("d_train.jsonl", '{"consensus_score": NaN}', "consensus_score", "a finite number"),
            ("queries.jsonl", '{"step": [1]}', "step", "an integer"),
            ("queries.jsonl", '{"step": 0, "r_chal": "x"}', "r_chal", "a finite number or null"),
            ("d_active.jsonl", '{"image_id": ["a"]}', "image_id", "a string"),
            ("solver_steps.jsonl", '{"step": 0, "mean_reward": true}', "mean_reward",
             "a finite number or null"),
        ],
        ids=("string_consensus", "nan_consensus", "list_step", "string_reward",
             "list_image_id", "boolean_mean_reward"),
    )
    def test_wrongly_typed_column_exits_one(
        self, finished_run, capsys, artifact, row, column, what
    ):
        # Unchecked, these ended report and a resumed run in a raw TypeError
        # or ValueError traceback, or (a boolean mean_reward) counted true as 1.
        path = finished_run / "cycle1" / artifact
        lineno = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        expected = (
            f"error[ManifestError]: {path}:{lineno}: the {column!r} column must hold {what}, not "
        )
        for argv in (["report"], ["run"] + RUN_ARGS):
            code, out, err = run_cli(capsys, argv + ["--run-dir", str(finished_run)])
            assert (code, out) == (1, "")
            assert err.startswith(expected)
            assert err.count("\n") == 1

    def test_report_on_active_rows_without_category_exits_one(self, finished_run, capsys):
        # d_active rows written before they carried their image's category:
        # the report reads no index to look one up, so it refuses them.
        path = finished_run / "cycle1" / "d_active.jsonl"
        rows = read_jsonl(path)
        path.write_text("".join(
            json.dumps({k: v for k, v in row.items() if k != "category"}) + "\n" for row in rows
        ))
        code, out, err = run_cli(capsys, ["report", "--run-dir", str(finished_run)])
        assert (code, out) == (1, "")
        assert err == f"error[ManifestError]: {path}:1: a row lacks the 'category' column\n"

    def test_report_builds_no_engine(self, finished_run, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("report built an engine or drew a world")

        monkeypatch.setattr(orchestrator, "build_engine", refuse)
        monkeypatch.setattr(SyntheticWorld, "generate", refuse)
        out_path = tmp_path / "report.json"
        argv = ["report", "--run-dir", str(finished_run), "--out", str(out_path)]
        assert run_cli(capsys, argv)[0] == 0
        assert out_path.read_bytes() == (finished_run / "stats.json").read_bytes()

    def test_report_on_a_remote_run_needs_no_manifest_or_token(
        self, finished_run, tmp_path, capsys, monkeypatch
    ):
        # A remote run's report used to load the manifest and build the HTTP
        # clients, so a moved manifest or an unset token ended it in one error.
        remote = tmp_path / "remote"
        shutil.copytree(finished_run, remote)
        config = json.loads((remote / "config.json").read_text())
        config["mode"] = "remote"
        config["manifest_path"] = str(tmp_path / "moved.jsonl")
        config["backend"].update(
            endpoint="https://api.example/v1/chat", model="m",
            embedding_endpoint="https://api.example/v1/embed", embedding_model="e",
            auth_env="TRIPLAY_UNSET_TOKEN",
        )
        (remote / "config.json").write_text(json.dumps(config))
        monkeypatch.delenv("TRIPLAY_UNSET_TOKEN", raising=False)
        out_path = tmp_path / "report.json"
        argv = ["report", "--run-dir", str(remote), "--out", str(out_path)]
        assert run_cli(capsys, argv)[0] == 0
        assert out_path.read_bytes() == (finished_run / "stats.json").read_bytes()

    def test_stats_and_report(self, finished_run, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["report", "--run-dir", str(finished_run), "--out", str(out_path)],
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["cycles"][0]["consensus_histogram"]["total"] >= 1

        code2, out2, _ = run_cli(capsys, ["report", "--run-dir", str(finished_run)])
        assert code2 == 0
        assert Path(out2.strip()).exists()

    def test_report_writes_the_runs_own_stats(self, tmp_path, capsys):
        # report recomputes stats.json from the run directory alone, so a
        # finished run's report must be the run's own stats.json, byte for byte.
        run_dir, out_path = tmp_path / "run", tmp_path / "report.json"
        args = RUN_ARGS + ["--cycles", "2"]
        assert run_cli(capsys, ["run", "--run-dir", str(run_dir)] + args)[0] == 0
        argv = ["report", "--run-dir", str(run_dir), "--out", str(out_path)]
        assert run_cli(capsys, argv)[0] == 0
        assert out_path.read_bytes() == (run_dir / "stats.json").read_bytes()


class TestGrpoCheck:
    def test_passes_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, ["grpo", "check", "--trials", "40"])
        assert code == 0
        payload = json.loads(out)
        assert payload["max_relative_error"] < 1e-4


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["grpo", "check", "--trials", "0"],
            ["grpo", "check", "--trials", "-5"],
            ["index", "search", "--manifest", "m.jsonl", "--query-file", "q.jsonl", "--k", "0"],
            ["synth", "gen", "--out", "c.jsonl", "--count", "0"],
            ["synth", "gen", "--out", "c.jsonl", "--dim", "0"],
        ],
        ids=("trials_zero", "trials_negative", "k_zero", "count_zero", "dim_zero"),
    )
    def test_count_below_one_is_usage_error(self, argv, capsys):
        # Unchecked, zero trials checked nothing and passed, and --k 0 ended
        # in a raw ValueError traceback from the index.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, last_line",
        [
            (
                ["run", "--synthetic", "--seed", "-1", "--cycles", "1", "--world-count", "400"],
                1,
                "error[ConfigError]: seed must be >= 0, got -1",
            ),
            (
                ["synth", "gen", "--seed", "-1", "--count", "10", "--out", "c.jsonl"],
                2,
                "triplay synth gen: error: argument --seed: must be >= 0, got -1",
            ),
            (
                ["grpo", "check", "--trials", "2", "--seed", "-1"],
                2,
                "triplay grpo check: error: argument --seed: must be >= 0, got -1",
            ),
        ],
        ids=("run", "synth_gen", "grpo_check"),
    )
    def test_negative_seed_refused(self, tmp_path, monkeypatch, capsys, argv, code, last_line):
        # Unchecked, each ended in numpy's "expected non-negative integer"
        # ValueError traceback.
        monkeypatch.chdir(tmp_path)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert err.splitlines()[-1] == last_line
        assert code == 2 or err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["dataset", "build", "--d-active", "d_active.jsonl", "--out-dir", "out"],
            ["synth", "gen", "--out", "c.jsonl", "--bands", "4"],
        ],
        ids=("dataset_build", "synth_gen_bands"),
    )
    def test_removed_surface_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "categories, message",
        [
            (",", "at least one category"),
            ("", "at least one category"),
            (" , ,", "at least one category"),
            ("charts,maps,charts", "twice"),
            ("charts, charts", "twice"),
        ],
        ids=("commas_only", "empty", "blanks", "duplicate", "duplicate_after_strip"),
    )
    def test_bad_category_list_is_usage_error(self, tmp_path, categories, message, capsys):
        # An empty list ended in a raw ZeroDivisionError traceback.
        out = tmp_path / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "gen", "--out", str(out), "--categories", categories])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            (["run", "--run-dir", "{file}/run"] + RUN_ARGS, "NotADirectoryError"),
            (["run", "--config", "{dir}"], "IsADirectoryError"),
            (["index", "build", "--manifest", "{dir}"], "IsADirectoryError"),
        ],
        ids=("run_dir_under_a_file", "config_is_a_directory", "manifest_is_a_directory"),
    )
    def test_os_error_is_one_line(self, tmp_path, capsys, argv, error):
        # Unchecked, each ended in a raw traceback: only a missing file was
        # caught, not a directory where a file belongs or the reverse.
        regular = tmp_path / "file"
        regular.write_text("")
        argv = [arg.format(file=regular, dir=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[{error}]: ")
        assert err.count("\n") == 1

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("index", "synth", "run", "dataset", "grpo", "report"):
            assert name in out
