import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus_data import conversations  # noqa: E402

from apar import cli, engine, sim
from apar.blocks import KvBlockPool
from apar.cli import _build_parser, main
from apar.runtime import SequenceGroup
from apar.script import ReplayModel, ScriptNode, ScriptTree, script_to_json
from apar.sim import MAX_SAMPLES, MAX_WORKLOAD_SIZE, list_script
from apar.tokens import CONTROL_TOKENS


@pytest.fixture
def fig3_path(tmp_path, fig3_script):
    path = tmp_path / "fig3.json"
    path.write_text(script_to_json(fig3_script))
    return str(path)


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as fh:
        for conv in conversations():
            fh.write(json.dumps(conv) + "\n")
    return str(path)


class TestDecode:
    def test_apar_prints_restored_text(self, fig3_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["decode", "--script", fig3_path, "--trace", str(trace)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a1 a2 d1 d2 b1"
        lines = trace.read_text().strip().split("\n")
        assert json.loads(lines[0])["steps"] == 7

    def test_ar_mode(self, fig3_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["decode", "--script", fig3_path, "--mode", "ar", "--trace", str(trace)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a1 a2 d1 d2 b1"
        assert json.loads(trace.read_text().split("\n")[0])["steps"] == 6

    def test_malformed_script_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decode", "--script", str(bad)]) == 1

    def test_unknown_flag_rejected(self, fig3_path):
        assert main(["decode", "--script", fig3_path, "--bogus"]) == 1

    @pytest.mark.parametrize("mode, printed", [("apar", 6097), ("ar", 2044)])
    def test_cut_decode_says_so_on_stderr(self, mode, printed, tmp_path, capsys):
        # Flattens to 9,022 content tokens: both modes stop after 2,044 steps,
        # at the default max_seq_len of 2,048 less the 4-token prompt.
        path = tmp_path / "long.json"
        path.write_text(script_to_json(list_script(items=3, detail_len=3000)))
        assert main(["decode", "--script", str(path), "--mode", mode]) == 0
        out, err = capsys.readouterr()
        assert len(out.split()) == printed
        assert err == (
            "warning: the decode was cut after 2044 steps; it printed"
            f" {printed} of the script's 9022 content tokens\n"
        )

    def test_uncut_decode_writes_nothing_to_stderr(self, fig3_path, capsys):
        assert main(["decode", "--script", fig3_path]) == 0
        assert capsys.readouterr().err == ""


def _leak_a_block(monkeypatch) -> str:
    release = KvBlockPool.release_sequence

    def leaky_release(self, start, end):
        if start == 0:  # a group's last release: its root's first block
            start += self.block_size  # is a block nobody frees
        return release(self, start, end)

    monkeypatch.setattr(KvBlockPool, "release_sequence", leaky_release)
    return "ended with 1 blocks still held"


def _unlink_forks(monkeypatch) -> str:
    fork = SequenceGroup.fork_sequence

    def unlinking_fork(group, parent_id):
        # Fork, then drop the forked node's pointer to its continuation.
        child_id = fork(group, parent_id)
        forked = group._parents[group.live[parent_id].current_node]
        group.tree.nodes[forked].next_sibling = None
        return child_id

    monkeypatch.setattr(SequenceGroup, "fork_sequence", unlinking_fork)
    return "gave an invalid tree: ['node 0 has exactly 1 pointer'"


def _replay_other_content(monkeypatch) -> str:
    # A script of the same shape with other tokens: a valid tree of the
    # right length.
    def renamed(script):
        nodes = {
            nid: replace(node, tokens=tuple(t.upper() for t in node.tokens))
            for nid, node in script.nodes.items()
        }
        return ReplayModel(replace(script, nodes=nodes))

    monkeypatch.setattr(cli, "ReplayModel", renamed)
    return "restored 5 content tokens that differ from its script's"


class TestEndOfDecodeCheck:
    """A decode that leaks a block, links its tree wrongly or restores other
    content is a fault of the program: exit 2, with no text or report."""

    @pytest.mark.parametrize(
        "fault", [_leak_a_block, _unlink_forks, _replay_other_content],
        ids=["leaked-block", "unlinked-tree", "other-content"],
    )
    @pytest.mark.parametrize("command", ["decode", "bench"])
    def test_fault_is_internal_error(
        self, fault, command, fig3_script, tmp_path, monkeypatch, capsys
    ):
        message = fault(monkeypatch)
        path = tmp_path / "fig3.json"
        path.write_text(script_to_json(fig3_script))
        report = tmp_path / "r.csv"
        if command == "decode":
            argv = ["decode", "--script", str(path)]
        else:
            argv = ["bench", "--scripts", str(tmp_path), "--report", str(report)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"internal error: the apar decode of {path} {message}")
        assert "Traceback" not in err
        assert out == ""
        assert not report.exists()


class TestExtract:
    def test_full_corpus(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        stats = tmp_path / "stats.json"
        rc = main([
            "extract", "--input", corpus_path,
            "--output", str(out), "--stats", str(stats),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 50
        loaded = json.loads(stats.read_text())
        assert loaded["counts"] == {
            "ordered_list": 16, "paragraph": 15, "unstructured": 19
        }

    def test_ratio_assembly(self, tmp_path, capsys):
        convs = conversations()
        subset = convs[:10] + convs[31:35]  # 10 structured, 4 unstructured
        path = tmp_path / "sub.jsonl"
        with open(path, "w") as fh:
            for conv in subset:
                fh.write(json.dumps(conv) + "\n")
        out = tmp_path / "samples.jsonl"
        rc = main([
            "extract", "--input", str(path), "--output", str(out), "--ratio", "1:1",
        ])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 8

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "turns": []}\nnot json\n')
        rc = main(["extract", "--input", str(path), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "turns",
        [
            [{"role": "user", "text": "q"}, {"role": "assistant", "text": 5}],
            [{"role": "user", "text": ["x"]}, {"role": "assistant", "text": "a"}],
        ],
        ids=["int-assistant-text", "list-user-text"],
    )
    def test_non_string_turn_reports_number(self, turns, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "turns": []}\n' + json.dumps({"id": "b", "turns": turns}))
        rc = main(["extract", "--input", str(path), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert f"{path}:2: malformed conversation" in capsys.readouterr().err

    def test_blank_lines_skipped(self, tmp_path, capsys):
        path = tmp_path / "gaps.jsonl"
        lines = [json.dumps(conv) for conv in conversations()[:3]]
        path.write_text("\n" + "\n  \n".join(lines) + "\n\n")
        rc = main(["extract", "--input", str(path), "--output", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().out == "wrote 3 samples from 3 conversations\n"

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out = tmp_path / "samples.jsonl"
        stats = tmp_path / "stats.json"
        rc = main([
            "extract", "--input", str(path), "--output", str(out), "--stats", str(stats),
        ])
        assert rc == 0
        assert out.read_text() == ""
        assert json.loads(stats.read_text())["samples"] == 0

    def test_determinism(self, corpus_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.jsonl"
            main([
                "--seed", "7", "extract", "--input", corpus_path,
                "--output", str(out), "--ratio", "1:1",
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBenchAndReport:
    @pytest.fixture
    def script_dir(self, tmp_path, fig3_script, big_tree_script):
        d = tmp_path / "scripts"
        d.mkdir()
        (d / "fig3.json").write_text(script_to_json(fig3_script))
        (d / "big.json").write_text(script_to_json(big_tree_script))
        skip = ScriptTree(
            root=0, nodes={0: ScriptNode(0, ("x",))}, prompt=("p",), category="math"
        )
        (d / "skip.json").write_text(script_to_json(skip))
        return d

    def test_bench_csv(self, script_dir, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--scripts", str(script_dir), "--report", str(report)])
        assert rc == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0].startswith("name,category,apar_cached,flatten_cached")
        assert len(lines) == 4
        big_row = next(l for l in lines if l.startswith("big"))
        fields = dict(zip(lines[0].split(","), big_row.split(",")))
        assert fields["ar_steps"] == "185"
        assert float(fields["cached_saved_pct"]) > 0

    def test_bench_excludes_category(self, script_dir, tmp_path):
        report = tmp_path / "bench.csv"
        rc = main([
            "bench", "--scripts", str(script_dir), "--report", str(report),
            "--exclude-category", "math",
        ])
        assert rc == 0
        assert len(report.read_text().strip().split("\n")) == 3

    def test_bench_empty_dir(self, tmp_path):
        d = tmp_path / "none"
        d.mkdir()
        assert main(["bench", "--scripts", str(d), "--report", str(tmp_path / "r")]) == 1

    def test_bench_rejects_truncated_baseline(self, tmp_path, capsys):
        # Flattens to 2,140 tokens: ar stops at the default max_seq_len.
        d = tmp_path / "long"
        d.mkdir()
        (d / "long_list.json").write_text(script_to_json(list_script(items=6, detail_len=350)))
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--scripts", str(d), "--report", str(report)])
        assert rc == 1
        assert "long_list.json" in capsys.readouterr().err
        assert not report.exists()

    def test_report_merges_json(self, script_dir, tmp_path, capsys):
        a = tmp_path / "a.json"
        main([
            "bench", "--scripts", str(script_dir), "--report", str(a),
            "--format", "json",
        ])
        merged = tmp_path / "merged.csv"
        rc = main(["report", "--inputs", str(a), str(a), "--output", str(merged)])
        assert rc == 0
        assert len(merged.read_text().strip().split("\n")) == 7

    def test_report_json_output(self, script_dir, tmp_path, capsys):
        a = tmp_path / "a.json"
        main(["bench", "--scripts", str(script_dir), "--report", str(a), "--format", "json"])
        merged = tmp_path / "merged.json"
        rc = main([
            "report", "--inputs", str(a), "--output", str(merged), "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(a.read_text())
        assert json.loads(merged.read_text()) == sorted(rows, key=lambda r: r["name"])

    def test_report_no_inputs(self, tmp_path):
        assert main(["report", "--output", str(tmp_path / "x.csv")]) == 1


class TestSimulate:
    def test_default_config_small(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mode": "apar",
            "capacity_blocks": 120,
            "concurrency_limit": 8,
            "workload": {"kind": "list", "count": 6},
        }))
        report = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        rc = main([
            "simulate", "--config", str(config),
            "--report", str(report), "--csv", str(csv_out),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["summary"]["completed"] == 6
        assert csv_out.read_text().startswith("time,throughput")

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"mode": "warp"}')
        rc = main(["simulate", "--config", str(config), "--report", str(tmp_path / "r")])
        assert rc == 1

    def test_leaked_block_is_internal_error(self, tmp_path, monkeypatch, capsys):
        _leak_a_block(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "capacity_blocks": 120,
            "concurrency_limit": 2,
            "workload": {"kind": "list", "count": 2},
        }))
        rc = main(["simulate", "--config", str(config), "--report", str(tmp_path / "r")])
        assert rc == 2
        assert "blocks still held" in capsys.readouterr().err

    def test_content_miscount_is_internal_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(engine, "CONTROL_TOKENS", CONTROL_TOKENS | {"d0_0"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "capacity_blocks": 120,
            "concurrency_limit": 2,
            "workload": {"kind": "list", "count": 2},
        }))
        rc = main(["simulate", "--config", str(config), "--report", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "366 content tokens completed of the workload's 368" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_invalid_profile_tree_is_internal_error(self, tmp_path, monkeypatch, capsys):
        _unlink_forks(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "capacity_blocks": 120,
            "concurrency_limit": 2,
            "workload": {"kind": "list", "count": 2},
        }))
        rc = main(["simulate", "--config", str(config), "--report", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "internal error: decoding a request alone gave an invalid tree" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_pool_smaller_than_prompt_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "capacity_blocks": 1,
            "block_size": 2,
            "workload": {"kind": "list", "count": 2},
        }))
        rc = main(["simulate", "--config", str(config), "--report", str(tmp_path / "r")])
        assert rc == 1
        assert "needs 3 blocks" in capsys.readouterr().err

    def test_simulate_determinism(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "capacity_blocks": 80,
            "concurrency_limit": 5,
            "workload": {"kind": "list", "count": 4},
        }))
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"{tag}.json"
            main(["simulate", "--config", str(config), "--report", str(report)])
            outs.append(report.read_bytes())
        assert outs[0] == outs[1]


class TestBadInput:
    """Bad values exit 1 with an ``error:`` line, not a traceback or a hang."""

    def assert_input_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        return err

    def test_decode_block_size_zero(self, fig3_path, capsys):
        err = self.assert_input_error(
            ["decode", "--script", fig3_path, "--block-size", "0"], capsys
        )
        assert "--block-size" in err

    @pytest.mark.parametrize("field", ["block_size", "concurrency_limit"])
    def test_simulate_config_size_zero(self, field, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: 0, "workload": {"kind": "list", "count": 2}}))
        err = self.assert_input_error(
            ["simulate", "--config", str(config), "--report", str(tmp_path / "r")], capsys
        )
        assert field in err

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"concurency_limit": 5}, "concurency_limit"),
            ({"early_release": False}, "early_release"),
            ({"workload": {"kind": "list", "items": 0}}, "at least 1 item"),
            ({"capacity_blocks": -5}, "capacity_blocks"),
            ({"capacity_blocks": 2.5}, "capacity_blocks"),
            ({"block_size": True}, "block_size"),
            ({"workload": {"kind": "list", "items": 2.7}}, "items"),
            ({"workload": {"kind": "random", "seed": 1.9}}, "seed"),
            ({"cache_budget_fraction": True}, "cache_budget_fraction"),
            ({"cost": {"t_fixed": True, "c_token": 0.0, "c_attn": 0.0}}, "t_fixed"),
            ({"sample_period": 10**400}, "sample_period"),
            ({"capacity_blocks": 10**400}, "capacity_blocks"),
            ({"workload": {"kind": "list", "count": 3, "head_len": -2}}, "head_len"),
            ({"workload": {"kind": "list", "count": 3, "intro_len": -9}}, "intro_len"),
            ({"cost": {"t_fixed": 1}}, "missing cost keys ['c_attn', 'c_token']"),
            ({"warmup_discard_fraction": 1.0}, "warmup_discard_fraction"),
            ({"workload": {"kind": "list", "count": 0}}, "workload must be non-empty"),
            ({"workload": {"kind": "zipf"}}, "unknown workload kind 'zipf'"),
        ],
    )
    def test_simulate_bad_config(self, payload, named, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        err = self.assert_input_error(
            ["simulate", "--config", str(config), "--report", str(tmp_path / "r")], capsys
        )
        assert named in err
        assert not (tmp_path / "r").exists()

    def test_simulate_tiny_sample_period(self, tmp_path, capsys):
        # One sample per elapsed period made this run append samples without
        # end; the sample cap refuses it before the first sample.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sample_period": 1e-300}))
        err = self.assert_input_error(
            ["simulate", "--config", str(config), "--report", str(tmp_path / "r")], capsys
        )
        assert f"more than {MAX_SAMPLES} samples" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["1e400", "NaN"])
    def test_simulate_non_finite_cost(self, value, tmp_path, capsys):
        # 1e400 parses as inf, which made the run loop without end; NaN wrote
        # a report that is not valid JSON.
        config = tmp_path / "config.json"
        config.write_text(
            '{"cost": {"t_fixed": %s, "c_token": 0.0, "c_attn": 0.0},'
            ' "workload": {"kind": "list", "count": 2}}' % value
        )
        err = self.assert_input_error(
            ["simulate", "--config", str(config), "--report", str(tmp_path / "r")], capsys
        )
        assert "finite" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "spec, size",
        [
            ({"kind": "list", "count": 10**9}, 195 * 10**9),
            ({"kind": "list", "count": 1, "items": 10**9}, 38 * 10**9 + 5),
            ({"kind": "list", "count": -3, "items": 10**9}, 38 * 10**9 + 5),
            ({"kind": "list", "count": 2, "detail_len": MAX_WORKLOAD_SIZE}, None),
            ({"kind": "random", "count": 1, "max_nodes": 10**9}, 9 * 10**9),
            ({"kind": "random", "count": 10**6, "max_node_len": 40}, 656 * 10**6),
        ],
        ids=["list-count", "list-items", "list-negative-count", "list-detail",
             "random-nodes", "random-count"],
    )
    def test_simulate_workload_over_cap(self, spec, size, tmp_path, capsys, monkeypatch):
        # The reader refuses the spec before it builds a script.
        def no_build(*args, **kwargs):
            raise AssertionError("an oversized workload was built")

        monkeypatch.setattr(sim, "list_script", no_build)
        monkeypatch.setattr(sim, "random_script", no_build)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workload": spec}))
        err = self.assert_input_error(
            ["simulate", "--config", str(config), "--report", str(tmp_path / "r")], capsys
        )
        assert f"more than the cap of {MAX_WORKLOAD_SIZE}" in err
        if size is not None:
            assert f"up to {size} nodes and content tokens" in err
        assert not (tmp_path / "r").exists()

    def test_bench_scripts_not_a_directory(self, fig3_path, tmp_path, capsys):
        err = self.assert_input_error(
            ["bench", "--scripts", fig3_path, "--report", str(tmp_path / "r")], capsys
        )
        assert f"{fig3_path} is not a directory" in err

    def test_bench_every_script_excluded(self, fig3_script, tmp_path, capsys):
        d = tmp_path / "scripts"
        d.mkdir()
        (d / "math.json").write_text(script_to_json(replace(fig3_script, category="math")))
        err = self.assert_input_error(
            ["bench", "--scripts", str(d), "--report", str(tmp_path / "r"),
             "--exclude-category", "math"],
            capsys,
        )
        assert "every script was excluded" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_report_input_unreadable(self, text, tmp_path, capsys):
        path = tmp_path / "rows.json"
        if text is not None:
            path.write_text(text)
        err = self.assert_input_error(
            ["report", "--inputs", str(path), "--output", str(tmp_path / "m.csv")], capsys
        )
        assert f"cannot read {path}" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("payload", [{"name": "x"}, [1, 2]], ids=["object", "list-of-ints"])
    def test_report_input_not_rows(self, payload, tmp_path, capsys):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(payload))
        err = self.assert_input_error(
            ["report", "--inputs", str(path), "--output", str(tmp_path / "m.csv")], capsys
        )
        assert str(path) in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda s: s.update(root=7), id="unknown-root"),
            pytest.param(lambda s: s["nodes"][0].update(next_sibling=9), id="unknown-pointer"),
            pytest.param(lambda s: s["nodes"][0].update(first_child=0), id="self-loop"),
            pytest.param(lambda s: s["nodes"][0].update(first_child=2), id="shared-node"),
            pytest.param(lambda s: s["nodes"].append(s["nodes"][2]), id="repeated-id"),
            pytest.param(lambda s: s["nodes"].append({"id": 3, "tokens": ["x"]}), id="unreached"),
            pytest.param(lambda s: s.update(prompt=[]), id="empty-prompt"),
            pytest.param(lambda s: s.update(prompt=["Q", "[EOS]"]), id="control-prompt"),
            pytest.param(lambda s: s["nodes"][0].update(tokens="hello"), id="string-tokens"),
            pytest.param(lambda s: s.update(prompt="Qx"), id="string-prompt"),
            pytest.param(lambda s: s["nodes"][0].update(tokens=[1, 2]), id="int-tokens"),
            pytest.param(lambda s: s.update(category=5), id="non-string-category"),
            pytest.param(lambda s: s["nodes"][0].update(first_child=None), id="one-pointer"),
            pytest.param(lambda s: s["nodes"][1].update(id=True), id="bool-id"),
            pytest.param(lambda s: s["nodes"][2].update(id=2.0), id="float-id"),
            pytest.param(lambda s: s["nodes"][0].update(first_child=[1]), id="list-pointer"),
            pytest.param(lambda s: s.update(root=False), id="bool-root"),
        ],
    )
    @pytest.mark.parametrize("command", ["decode", "bench"])
    def test_bad_script_rejected_at_load(self, edit, command, fig3_script, tmp_path, capsys):
        payload = json.loads(script_to_json(fig3_script))
        edit(payload)
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        if command == "decode":
            argv = ["decode", "--script", str(tmp_path / "bad.json")]
        else:
            argv = ["bench", "--scripts", str(tmp_path), "--report", str(tmp_path / "r.csv")]
        err = self.assert_input_error(argv, capsys)
        assert "cannot load script" in err

    @pytest.mark.parametrize("ratio", ["1:0", "0:1", "0:0"])
    def test_extract_nonpositive_ratio(self, ratio, corpus_path, tmp_path, capsys):
        err = self.assert_input_error(
            ["extract", "--input", corpus_path, "--output", str(tmp_path / "o"),
             "--ratio", ratio],
            capsys,
        )
        assert ratio in err


def _accepted_flags(parser: argparse.ArgumentParser) -> set[str]:
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _accepted_flags(sub)
    return flags


def test_readme_cli_flags_exist():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert {"--seed", "--ratio", "--config"} <= documented  # prose and sh block both read
    assert documented - _accepted_flags(_build_parser()) == set()
