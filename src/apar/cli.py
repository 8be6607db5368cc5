"""Command line surface: extract corpora, decode scripts, benchmark, simulate.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
All randomness flows from --seed, so identical inputs and seeds give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blocks import DEFAULT_BLOCK_SIZE
from .engine import apar_decode, ar_decode, check_decode
from .errors import (
    DecodeInvariantError,
    ProtocolError,
    ScriptMismatch,
    SimulationError,
    SimulationInvariantError,
    TreeError,
)
from .extract import (
    Conversation,
    assemble_with_ratio,
    corpus_stats,
    extract_conversation,
)
from .metrics import (
    flatten_max_cached,
    flatten_mean_attended,
    mean_attended_tokens,
    max_cached_tokens,
    saved_ratio,
    thread_stats,
    write_report_csv,
    write_report_json,
)
from .script import ReplayModel, ScriptTree, as_linear, flatten_script, script_from_json
from .sim import config_from_json, default_config, run_simulation


class CliInputError(Exception):
    pass


_WRITERS = {"csv": write_report_csv, "json": write_report_json}  # --format of bench, report


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise CliInputError(message)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="apar", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="turn conversations into training samples")
    p.add_argument("--input", required=True, help="conversations JSONL")
    p.add_argument("--output", required=True, help="training sample JSONL")
    p.add_argument("--stats", help="classification stats JSON")
    p.add_argument(
        "--ratio",
        default="none",
        help="structured:unstructured assembly ratio, e.g. 1:1; 'none' keeps all",
    )

    p = sub.add_parser("decode", help="decode a script and print the restored text")
    p.add_argument("--script", required=True, help="script JSON file")
    p.add_argument("--mode", choices=("apar", "ar"), default="apar")
    p.add_argument("--trace", help="write the step trace as JSONL")
    p.add_argument("--block-size", type=_positive_int, default=DEFAULT_BLOCK_SIZE)

    p = sub.add_parser("bench", help="compare forked decoding against the flatten baseline")
    p.add_argument("--scripts", required=True, help="directory of script JSON files")
    p.add_argument("--report", required=True, help="output report path")
    p.add_argument("--format", choices=_WRITERS, default="csv")
    p.add_argument(
        "--exclude-category",
        action="append",
        default=[],
        help="drop scripts whose category matches (repeatable)",
    )

    p = sub.add_parser("simulate", help="run the serving simulator")
    p.add_argument("--config", help="simulation config JSON (omit for the default)")
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--csv", help="also write the sample time series as CSV")

    p = sub.add_parser("report", help="merge bench outputs into one table")
    p.add_argument("--inputs", nargs="*", default=[], help="bench JSON reports")
    p.add_argument("--format", choices=_WRITERS, default="csv")
    p.add_argument("--output", required=True)
    return parser


def _read_conversations(path: str) -> list[Conversation]:
    conversations = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                conversations.append(Conversation.from_dict(payload))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CliInputError(f"{path}:{lineno}: malformed conversation: {exc}")
    return conversations


def _parse_ratio(text: str) -> tuple[int, int] | None:
    if text.lower() in ("none", ""):
        return None
    try:
        a, b = map(int, text.split(":"))
        if a < 1 or b < 1:
            raise ValueError
    except ValueError:
        raise CliInputError(f"bad ratio {text!r}; expected two positive parts like 1:1")
    return a, b


def cmd_extract(args: argparse.Namespace) -> int:
    ratio = _parse_ratio(args.ratio)
    conversations = _read_conversations(args.input)
    labeled = []
    turns = []
    for conv in conversations:
        for turn_index, sample in extract_conversation(conv):
            labeled.append((conv.id, sample))
            turns.append(turn_index)
    stats = corpus_stats(labeled)
    chosen = list(zip(labeled, turns))
    if ratio is not None:
        kept = assemble_with_ratio(labeled, ratio, seed=args.seed)
        kept_ids = {id(entry) for entry in kept}
        chosen = [(entry, turn) for entry, turn in zip(labeled, turns) if id(entry) in kept_ids]
    with open(args.output, "w") as fh:
        for (conv_id, sample), turn_index in chosen:
            fh.write(json.dumps(sample.to_record(conv_id, turn_index)) + "\n")
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    print(f"wrote {len(chosen)} samples from {len(conversations)} conversations")
    return 0


def _load_script(path: str):
    try:
        return script_from_json(Path(path).read_text())
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"cannot load script {path}: {exc}")


def cmd_decode(args: argparse.Namespace) -> int:
    script = _load_script(args.script)
    decode, make_model = (
        (apar_decode, ReplayModel) if args.mode == "apar" else (ar_decode, as_linear)
    )
    result = decode(list(script.prompt), make_model(script), block_size=args.block_size)
    expected = flatten_script(script)
    check_decode(result, expected, f"the {args.mode} decode of {args.script}")
    print(" ".join(result.output))
    if args.trace:
        Path(args.trace).write_text(result.trace.to_jsonl())
    if result.trace.truncated:
        print(
            f"warning: the decode was cut after {result.trace.steps} steps; it printed"
            f" {len(result.output)} of the script's {len(expected)} content tokens",
            file=sys.stderr,
        )
    return 0


def _bench_one(path: Path, script: ScriptTree) -> dict:
    expected = flatten_script(script)
    apar = apar_decode(list(script.prompt), ReplayModel(script))
    check_decode(apar, expected, f"the apar decode of {path}")
    ar = ar_decode(list(script.prompt), as_linear(script))
    check_decode(ar, expected, f"the ar decode of {path}")
    if apar.trace.truncated or ar.trace.truncated:
        raise CliInputError(f"{path}: decoding was truncated; no speedup to report")
    seqs = apar.sequences_map()
    apar_cached = max_cached_tokens(apar.trace)
    flat_cached = flatten_max_cached(apar.tree, seqs)
    apar_att = mean_attended_tokens(apar.tree, seqs)
    flat_att = flatten_mean_attended(apar.tree, seqs)
    return {
        "name": path.stem,
        "category": script.category or "",
        "apar_cached": apar_cached,
        "flatten_cached": flat_cached,
        "cached_saved_pct": round(saved_ratio(apar_cached, flat_cached), 1),
        "apar_attended": round(apar_att, 2),
        "flatten_attended": round(flat_att, 2),
        "attended_saved_pct": round(saved_ratio(apar_att, flat_att), 1),
        "apar_steps": apar.trace.steps,
        "ar_steps": ar.trace.steps,
        "step_speedup": round(ar.trace.steps / apar.trace.steps, 3),
        "threads": apar.group.thread_count(),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    script_dir = Path(args.scripts)
    if not script_dir.is_dir():
        raise CliInputError(f"{args.scripts} is not a directory")
    paths = sorted(script_dir.glob("*.json"))
    if not paths:
        raise CliInputError(f"no script JSON files under {args.scripts}")
    loaded = [(path, _load_script(str(path))) for path in paths]
    excluded = set(args.exclude_category)
    rows = [
        _bench_one(path, script)
        for path, script in loaded
        if not (script.category and script.category in excluded)
    ]
    if not rows:
        raise CliInputError("every script was excluded")
    _WRITERS[args.format](rows, args.report)
    mean_threads, parallel = thread_stats([row["threads"] for row in rows])
    print(f"benchmarked {len(rows)} scripts: #T={mean_threads:.1f} %P={parallel:.2f}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        try:
            config = config_from_json(Path(args.config).read_text(), default_seed=args.seed)
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
            raise CliInputError(f"cannot load config {args.config}: {exc}")
    else:
        config = default_config()
    report = run_simulation(config)
    Path(args.report).write_text(report.to_json() + "\n")
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    print(
        f"mode={report.mode} budget={report.cache_budget_fraction}"
        f" throughput={report.summary['throughput']:.1f} tok/s"
        f" completed={report.summary['completed']}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if not args.inputs:
        raise CliInputError("no inputs given")
    rows = []
    for path in args.inputs:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliInputError(f"cannot read {path}: {exc}")
        if not (isinstance(payload, list) and all(isinstance(r, dict) for r in payload)):
            raise CliInputError(f"{path} does not hold a list of row objects")
        rows.extend(payload)
    rows.sort(key=lambda r: str(r.get("name", "")))
    _WRITERS[args.format](rows, args.output)
    print(f"merged {len(rows)} rows from {len(args.inputs)} inputs")
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "decode": cmd_decode,
    "bench": cmd_bench,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        DecodeInvariantError,
        ProtocolError,
        TreeError,
        ScriptMismatch,
        SimulationInvariantError,
        AssertionError,
    ) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (OSError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
