"""Command-line surface: index operations, synthetic-world generation, the
full self-play loop, dataset utilities, the gradient self-check, and reports.

Config precedence: values from --config are overridden by explicit flags.
Auth tokens are read from the environment variable named in the backend
config, never from flags or files. --log-level sets the verbosity of the
engine's log messages on stderr (default WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import orchestrator
from .config import load_config
from .embedding_index import (
    EmbeddingIndex,
    IndexManifest,
    _embedding,
    _json_lines,
    load_manifest,
    save_manifest,
)
from .errors import EngineError, ManifestError
from .grpo import gradient_check
from .rewards import check_window, difficulty_filter
from .synthetic_world import gen_corpus

GRADIENT_TOLERANCE = 1e-4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _category_list(text: str) -> list[str]:
    categories = [c.strip() for c in text.split(",") if c.strip()]
    if not categories:
        raise argparse.ArgumentTypeError("needs at least one category")
    if len(set(categories)) < len(categories):
        raise argparse.ArgumentTypeError(f"lists a category twice: {text!r}")
    return categories


# One entry per `triplay run` flag that sets a config value:
# (flag, config section or None for the root, key, type, help).
RUN_FLAGS = (
    ("--seed", None, "seed", int, "run seed (flag wins over config)"),
    ("--run-dir", None, "run_dir", str, "run directory (default: runs/<hash>-seed<seed>)"),
    ("--cycles", "iteration", "cycles", int, "number of full cycles"),
    ("--group-size", "iteration", "group_size", int, "GRPO group size G"),
    ("--probe-rollouts", "iteration", "probe_rollouts", int, "solver rollouts m per probe"),
    ("--vote-trajectories", "iteration", "vote_trajectories", int,
     "trajectories K for majority vote"),
    ("--queries", "iteration", "queries_per_iteration", int,
     "queries sampled when building the active set"),
    ("--top-k", "iteration", "top_k", int, "images retrieved per query"),
    ("--searcher-steps", "iteration", "searcher_steps", int, "stage-1 optimization steps per cycle"),
    ("--questioner-steps", "iteration", "questioner_steps", int,
     "stage-2 optimization steps per cycle"),
    ("--solver-steps", "iteration", "solver_steps", int, "stage-3 optimization steps per cycle"),
    ("--tau-txt", "iteration", "tau_txt", float, "text clustering threshold"),
    ("--tau-vis", "iteration", "tau_vis", float, "visual clustering threshold"),
    ("--tau-low", "iteration", "tau_low", float, "difficulty window lower bound"),
    ("--tau-high", "iteration", "tau_high", float, "difficulty window upper bound"),
    ("--world-count", "world", "count", int, "synthetic corpus size"),
    ("--world-dim", "world", "dim", int, "synthetic embedding dimension"),
)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {"mode": "synthetic"} if args.synthetic else {}
    for flag, section, key, _, _ in RUN_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            target = overrides.setdefault(section, {}) if section else overrides
            target[key] = value
    return overrides


def _cmd_index_build(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    index = EmbeddingIndex(manifest)
    if args.out:
        save_manifest(manifest, args.out)
    print(
        json.dumps(
            {
                "dimension": manifest.dimension,
                "count": len(index),
                "checksum": manifest.checksum,
            }
        )
    )
    return 0


def _load_queries(path: str) -> list[np.ndarray]:
    """One query per non-blank line: a list of numbers, or an object whose
    "embedding" is one. A bad line raises ManifestError naming file and line."""
    queries = []
    for lineno, row in _json_lines(path):
        if isinstance(row, dict):
            row = row.get("embedding")
        queries.append(_embedding(path, lineno, row))
    return queries


def _cmd_index_search(args: argparse.Namespace) -> int:
    index = EmbeddingIndex(load_manifest(args.manifest))
    queries = _load_queries(args.query_file)
    results = index.retrieve_batch(queries, args.k)
    for q_idx, ranked in enumerate(results):
        for rank, (record, score) in enumerate(ranked, start=1):
            print(
                json.dumps(
                    {"query_index": q_idx, "rank": rank, "id": record.id, "score": score}
                )
            )
    return 0


def _cmd_synth_gen(args: argparse.Namespace) -> int:
    records = gen_corpus(args.seed, args.count, args.dim, args.categories)
    manifest = IndexManifest(dimension=args.dim, records=records)
    save_manifest(manifest, args.out)
    print(json.dumps({"out": args.out, "count": args.count, "dimension": args.dim}))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides_from_args(args))
    report = orchestrator.run(cfg)
    print(json.dumps(report))
    return 0


def _cmd_dataset_filter(args: argparse.Namespace) -> int:
    """Keep the rows whose accuracy lies inside (--low, --high). A row that is
    not a JSON object with a numeric accuracy in [0, 1] raises ManifestError
    naming the file and line."""
    check_window(args.low, args.high)
    rows = []
    for lineno, row in _json_lines(args.input):
        # JSON true and false are not numbers, although Python counts a bool as
        # an int; JSON NaN fails the range check, as no comparison holds for it.
        accuracy = row.get("accuracy") if isinstance(row, dict) else None
        if type(accuracy) not in (int, float) or not 0.0 <= accuracy <= 1.0:
            raise ManifestError(f"{args.input}:{lineno}: a row needs a numeric accuracy in [0, 1]")
        rows.append(row)
    kept = [r for r in rows if difficulty_filter(r["accuracy"], args.low, args.high)]
    orchestrator.write_jsonl(Path(args.output), kept)
    print(json.dumps({"input": len(rows), "kept": len(kept)}))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """stats.json from the run directory alone: its config.json and cycle
    artifacts. No world is drawn, no manifest loaded and no backend built."""
    run_dir = Path(args.run_dir)
    report = orchestrator.compute_stats(load_config(run_dir / "config.json"), run_dir)
    out = Path(args.out) if args.out else run_dir / "stats.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(str(out))
    return 0


def _cmd_grpo_check(args: argparse.Namespace) -> int:
    error = gradient_check(trials=args.trials, seed=args.seed)
    print(json.dumps({"max_relative_error": error, "tolerance": GRADIENT_TOLERANCE}))
    return 0 if error < GRADIENT_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplay",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="lowest level of log message written to stderr (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="vector index operations")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser("build", help="load, validate, and summarize a manifest")
    build.add_argument("--manifest", required=True)
    build.add_argument("--out", help="write the canonicalized manifest here")
    build.set_defaults(func=_cmd_index_build)
    search = index_sub.add_parser("search", help="top-k cosine search")
    search.add_argument("--manifest", required=True)
    search.add_argument("--query-file", required=True, help="JSONL of embeddings")
    search.add_argument("--k", type=_positive_int, required=True)
    search.set_defaults(func=_cmd_index_search)

    synth = sub.add_parser("synth", help="synthetic world utilities")
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)
    gen = synth_sub.add_parser("gen", help="write a synthetic corpus manifest")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--count", type=_positive_int, default=10000)
    gen.add_argument("--dim", type=_positive_int, default=32)
    gen.add_argument(
        "--categories", type=_category_list, default="charts,diagrams,maps,photos",
        help="comma-separated, distinct category names",
    )
    gen.set_defaults(func=_cmd_synth_gen)

    run_p = sub.add_parser("run", help="execute the full three-stage loop")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--synthetic", action="store_true", help="use the synthetic world")
    for flag, _, _, type_, help_ in RUN_FLAGS:
        run_p.add_argument(flag, type=type_, help=help_)
    run_p.set_defaults(func=_cmd_run)

    dataset = sub.add_parser("dataset", help="dataset utilities")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)
    dfilter = dataset_sub.add_parser("filter", help="apply the difficulty window")
    dfilter.add_argument("--input", required=True)
    dfilter.add_argument("--output", required=True)
    dfilter.add_argument("--low", type=float, default=0.3)
    dfilter.add_argument("--high", type=float, default=0.8)
    dfilter.set_defaults(func=_cmd_dataset_filter)

    check = sub.add_parser("grpo", help="optimization self-checks")
    check_sub = check.add_subparsers(dest="grpo_command", required=True)
    gcheck = check_sub.add_parser(
        "check", help="analytic vs finite-difference gradient validation"
    )
    gcheck.add_argument("--trials", type=_positive_int, default=100)
    gcheck.add_argument("--seed", type=_nonnegative_int, default=0)
    gcheck.set_defaults(func=_cmd_grpo_check)

    report = sub.add_parser("report", help="emit the stats report for a run dir")
    report.add_argument("--run-dir", required=True)
    report.add_argument("--out")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
