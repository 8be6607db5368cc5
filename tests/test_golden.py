"""Byte-identity pins: sha256 over CLI outputs at a fixed ``--seed``.

A change that should leave every output as it was must leave these hashes
as they are.  A change that alters an output on purpose updates the hash
and says why.  Each digest covers, in order, every output file and the
captured stdout, or every array's bytes, each prefixed by its length.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from corpus_data import conversations  # noqa: E402
from oracles import script_to_json  # noqa: E402

from apar.attention import build_loss_mask, build_training_mask, linearize_script
from apar.cli import main
from apar.script import random_script
from apar.sim import list_script

CONFIG = Path(__file__).parents[1] / "configs" / "simulate.json"

# (name, script, block sizes); every script runs in both modes.
DECODE_SCRIPTS = [
    *((f"random{seed}", random_script(seed), (16, 3)) for seed in range(12)),
    *(
        (f"random_wide{seed}", random_script(seed, max_nodes=40, max_node_len=3), (16, 1))
        for seed in range(100, 104)
    ),
    ("list_default", list_script(), (16, 3)),
    ("list_short", list_script(items=2, intro_len=0, head_len=1, detail_len=2), (16, 1)),
    ("list_wide", list_script(items=9, detail_len=5), (16, 5)),
    # Flattens to 2,140 tokens: the ar run stops at the default max_seq_len.
    ("list_truncated", list_script(items=6, detail_len=350), (16,)),
]
# Every decode script but the truncated one, whose ar baseline bench rejects.
BENCH_SCRIPTS = [(name, script) for name, script, _ in DECODE_SCRIPTS if name != "list_truncated"]


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _simulate_parts(tmp_path, capsys, config: list[str]) -> list[bytes]:
    report, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    argv = ["--seed", "3", "simulate", *config, "--report", str(report), "--csv", str(csv_out)]
    assert main(argv) == 0
    return [report.read_bytes(), csv_out.read_bytes(), capsys.readouterr().out.encode()]


def test_simulate_default_config_bytes(tmp_path, capsys):
    parts = _simulate_parts(tmp_path, capsys, [])
    assert _digest(parts) == (
        "b0e41f8dd52d8839dd21699000f4a9eb1035b7c401108abc11e2e4a145a8d80f"
    )


def test_simulate_shipped_config_bytes(tmp_path, capsys):
    parts = _simulate_parts(tmp_path, capsys, ["--config", str(CONFIG)])
    assert _digest(parts) == (
        "dcb55ea53f9926fe4cca0983589e0d4e24de28edef6a0164d1bd9882294d67d2"
    )


def test_simulate_shipped_config_ar_bytes(tmp_path, capsys):
    # The shipped config in ar mode preempts 30 times: the one pin on
    # preemption and re-admission of the sequential baseline.
    config = json.loads(CONFIG.read_text())
    config["mode"] = "ar"
    path = tmp_path / "simulate_ar.json"
    path.write_text(json.dumps(config))
    parts = _simulate_parts(tmp_path, capsys, ["--config", str(path)])
    assert json.loads(parts[0])["summary"]["preemptions"] == 30
    assert _digest(parts) == (
        "6b2defd50262c113fe7e30ca57173aef053c5cce9ad55c8eec01fc9ee02501fa"
    )


# Distinct random scripts at block size 3 on a small pool: no two requests
# share a script, so every admission decodes a script of its own.
RANDOM_CONFIG = {
    "workload": {"kind": "random", "count": 40, "seed": 3},
    "block_size": 3,
    "capacity_blocks": 40,
    "concurrency_limit": 8,
    "sample_period": 0.5,
}


def test_simulate_random_workload_bytes(tmp_path, capsys):
    parts: list[bytes] = []
    for mode in ("apar", "ar"):
        path = tmp_path / f"random_{mode}.json"
        path.write_text(json.dumps({**RANDOM_CONFIG, "mode": mode}))
        mode_parts = _simulate_parts(tmp_path, capsys, ["--config", str(path)])
        assert json.loads(mode_parts[0])["summary"]["preemptions"] > 0
        parts += mode_parts
    assert _digest(parts) == (
        "5dd5cae76d881ea862e0eda17f36f589382b41fe53207a4d69b6144294b50d80"
    )


def test_decode_trace_bytes(tmp_path, capsys):
    parts: list[bytes] = []
    truncated = 0
    for name, script, block_sizes in DECODE_SCRIPTS:
        path = tmp_path / f"{name}.json"
        path.write_text(script_to_json(script))
        for mode in ("apar", "ar"):
            for bs in block_sizes:
                trace = tmp_path / f"{name}.{mode}.{bs}.jsonl"
                argv = ["--seed", "3", "decode", "--script", str(path), "--mode", mode,
                        "--trace", str(trace), "--block-size", str(bs)]
                assert main(argv) == 0
                parts += [trace.read_bytes(), capsys.readouterr().out.encode()]
                truncated += '"truncated": true' in trace.read_text().split("\n", 1)[0]
    assert truncated == 1
    assert _digest(parts) == (
        "44cd56c182e70a08d808c1d88dcfc7c1446dbb91d2b8bb748f9edc868a347a28"
    )


def test_extract_bytes(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(conv) + "\n" for conv in conversations()))
    parts: list[bytes] = []
    for ratio in ("none", "1:1"):
        out, stats = tmp_path / f"{ratio}.jsonl", tmp_path / f"{ratio}.stats.json"
        argv = ["--seed", "3", "extract", "--input", str(corpus), "--output", str(out),
                "--stats", str(stats), "--ratio", ratio]
        assert main(argv) == 0
        parts += [out.read_bytes(), stats.read_bytes(), capsys.readouterr().out.encode()]
    assert _digest(parts) == (
        "ed989d658d5e98ab45cae0d22d0dc2ce0560bac1bec39406d984aec93a150481"
    )


def test_bench_bytes(tmp_path, capsys):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for name, script in BENCH_SCRIPTS:
        (scripts / f"{name}.json").write_text(script_to_json(script))
    parts: list[bytes] = []
    for fmt in ("csv", "json"):
        report = tmp_path / f"bench.{fmt}"
        argv = ["--seed", "3", "bench", "--scripts", str(scripts), "--report", str(report),
                "--format", fmt]
        assert main(argv) == 0
        parts += [report.read_bytes(), capsys.readouterr().out.encode()]
    assert _digest(parts) == (
        "ebeae789db84fd10a624810757688976d7578c0f6e8f90d17f21f4c5ab3d9814"
    )


def test_training_and_loss_mask_bytes():
    parts: list[bytes] = []
    for _, script in BENCH_SCRIPTS:
        sample, tree = linearize_script(script)
        parts += [
            build_training_mask(sample, tree).tobytes(),
            build_loss_mask(sample).tobytes(),
        ]
    assert _digest(parts) == (
        "05c2a9c7d70da216d0873158bc85c6705c8f6ff66ac99bf48ebe2bf230adb9d5"
    )
