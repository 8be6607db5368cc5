import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import tokens_per_second  # noqa: E402

from apar.engine import apar_decode, ar_decode
from apar.metrics import (
    REPORT_COLUMNS,
    flatten_max_cached,
    flatten_mean_attended,
    max_cached_tokens,
    mean_attended_tokens,
    saved_ratio,
    thread_stats,
    write_report_csv,
    write_report_json,
)
from apar.script import ReplayModel, ScriptNode, ScriptTree, as_linear, random_script
from apar.sim import StepCostModel
from apar.tree import ParagraphNode, ParagraphTree


def linear_script(n, prompt_len=10):
    return ScriptTree(
        root=0,
        nodes={0: ScriptNode(0, tuple(f"w{i}" for i in range(n)))},
        prompt=tuple(f"p{i}" for i in range(prompt_len)),
    )


class TestSavedRatio:
    @pytest.mark.parametrize(
        "apar,flatten,expected",
        [
            (303.2, 417.2, 27.3),
            (513.3, 590.6, 13.1),
            (166.2, 256.4, 35.2),
        ],
    )
    def test_reported_values(self, apar, flatten, expected):
        assert saved_ratio(apar, flatten) == pytest.approx(expected, abs=0.05)

    def test_equal_inputs(self):
        assert saved_ratio(5.0, 5.0) == 0.0

    def test_zero_flatten(self):
        with pytest.raises(ValueError):
            saved_ratio(1.0, 0.0)

    def test_monotone_decreasing_in_first_arg(self):
        assert saved_ratio(100, 400) > saved_ratio(200, 400)


class TestThreadStats:
    def test_all_single(self):
        assert thread_stats([1, 1]) == (1.0, 0.0)

    def test_mixed(self):
        mean, parallel = thread_stats([3, 1, 2])
        assert mean == pytest.approx(2.0)
        assert parallel == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            thread_stats([])


class TestMaxCached:
    def test_ar_prompt_plus_generation(self):
        script = linear_script(19, prompt_len=10)  # 19 content + [EOS] = 20 generated
        result = ar_decode(list(script.prompt), as_linear(script))
        assert max_cached_tokens(result.trace) == 30

    def test_fig3_apar_peak(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        assert max_cached_tokens(result.trace) == 8
        assert flatten_max_cached(result.tree, result.sequences_map()) == 7

    def test_big_tree_below_flatten(self, big_tree_script):
        result = apar_decode(list(big_tree_script.prompt), ReplayModel(big_tree_script))
        peak = max_cached_tokens(result.trace)
        flat = flatten_max_cached(result.tree, result.sequences_map())
        assert peak < flat
        assert flat == len(big_tree_script.prompt) + 184 + 1


class TestMeanAttended:
    def test_ar_arithmetic_series(self):
        script = linear_script(9, prompt_len=10)  # 10 samples including [EOS]
        result = ar_decode(list(script.prompt), as_linear(script))
        seqs = result.sequences_map()
        got = mean_attended_tokens(result.tree, seqs)
        n = 10
        assert got == pytest.approx(10 + (n - 1) / 2)

    def test_fig3_values(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        seqs = result.sequences_map()
        assert mean_attended_tokens(result.tree, seqs) == pytest.approx(33 / 8)
        assert flatten_mean_attended(result.tree, seqs) == pytest.approx(3.5)

    def test_big_tree_saves(self, big_tree_script):
        result = apar_decode(list(big_tree_script.prompt), ReplayModel(big_tree_script))
        seqs = result.sequences_map()
        assert mean_attended_tokens(result.tree, seqs) < flatten_mean_attended(
            result.tree, seqs
        )

    def test_no_sampled_token_reads_zero(self):
        # One empty root node: no token was sampled, so no context to average.
        tree = ParagraphTree(root=0, nodes={0: ParagraphNode(0, 0, 0, 0)})
        assert mean_attended_tokens(tree, {0: []}) == 0.0


class TestTokensPerSecond:
    def test_big_tree_constant_steps(self, big_tree_script):
        cost = StepCostModel(t_fixed=0.001, c_token=0.0, c_attn=0.0)
        ar = ar_decode(list(big_tree_script.prompt), as_linear(big_tree_script))
        assert tokens_per_second(ar.trace, cost) == pytest.approx(184 / 0.185)
        apar = apar_decode(list(big_tree_script.prompt), ReplayModel(big_tree_script))
        ratio = tokens_per_second(apar.trace, cost) / tokens_per_second(ar.trace, cost)
        assert ratio == pytest.approx(185 / 71)

    def test_single_token(self):
        script = linear_script(1, prompt_len=2)
        result = ar_decode(list(script.prompt), as_linear(script))
        cost = StepCostModel(t_fixed=0.004, c_token=0.0, c_attn=0.0)
        # one content token over two steps (content + [EOS])
        assert tokens_per_second(result.trace, cost) == pytest.approx(1 / 0.008)

    def test_zero_parallel_ratio_at_most_one(self):
        script = linear_script(25, prompt_len=3)
        cost = StepCostModel(t_fixed=0.002, c_token=0.0, c_attn=0.0)
        apar = apar_decode(list(script.prompt), ReplayModel(script))
        ar = ar_decode(list(script.prompt), as_linear(script))
        ratio = tokens_per_second(apar.trace, cost) / tokens_per_second(ar.trace, cost)
        assert ratio <= 1.0 + 1e-9


class TestGroupMetricsAndReports:
    def test_attended_inequality_on_random_scripts(self):
        checked = 0
        for seed in range(300):
            script = random_script(seed, max_nodes=9, max_node_len=16)
            if all(n.first_child is None for n in script.nodes.values()):
                continue
            if any(len(n.tokens) < 8 for n in script.nodes.values()):
                continue
            result = apar_decode(list(script.prompt), ReplayModel(script))
            seqs = result.sequences_map()
            assert mean_attended_tokens(result.tree, seqs) < flatten_mean_attended(
                result.tree, seqs
            ), seed
            checked += 1
        assert checked >= 10

    def test_cache_inequality_on_list_scripts(self):
        # Needs staggered thread finishes: three or more items give every
        # detail thread room to release before the group's peak.
        import random as _random

        from apar.sim import list_script

        rng = _random.Random(1)
        for _ in range(60):
            script = list_script(
                items=rng.randint(3, 8),
                intro_len=rng.randint(0, 6),
                head_len=rng.randint(1, 8),
                detail_len=rng.randint(8, 24),
            )
            result = apar_decode(list(script.prompt), ReplayModel(script))
            seqs = result.sequences_map()
            assert max_cached_tokens(result.trace) <= flatten_max_cached(
                result.tree, seqs
            )

    def test_cache_overhead_bound_on_any_script(self):
        # Worst case: nothing releases before the peak, which then holds
        # every content token plus [Fork], [Child] and one extra [EOS] per
        # fork on top of the flatten reference's single [EOS].
        for seed in range(80):
            script = random_script(seed, max_nodes=11, max_node_len=10)
            result = apar_decode(list(script.prompt), ReplayModel(script))
            seqs = result.sequences_map()
            forks = sum(len(r.forks) for r in result.trace.records)
            bound = flatten_max_cached(result.tree, seqs) + 3 * forks - 1
            assert max_cached_tokens(result.trace) <= max(
                bound, flatten_max_cached(result.tree, seqs)
            ), seed

    def test_csv_column_order(self, tmp_path):
        rows = [{col: i for i, col in enumerate(REPORT_COLUMNS)}]
        path = tmp_path / "report.csv"
        write_report_csv(rows, str(path))
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == REPORT_COLUMNS

    def test_json_report(self, tmp_path):
        rows = [{"name": "x", "threads": 2}]
        path = tmp_path / "report.json"
        write_report_json(rows, str(path))
        loaded = json.loads(path.read_text())
        assert loaded[0]["name"] == "x"
        assert list(loaded[0]) == REPORT_COLUMNS


def _row_identity_scripts():
    from apar.sim import list_script

    for seed in range(40):
        yield f"random-{seed}", random_script(seed)
        yield f"random-small-{seed}", random_script(seed, max_nodes=40, max_node_len=3)
    for items, intro_len, head_len, detail_len in [
        (1, 0, 1, 0),
        (3, 4, 6, 0),
        (5, 0, 2, 0),
        (5, 4, 6, 30),
        (8, 2, 3, 17),
    ]:
        yield f"list-{items}-{intro_len}-{head_len}-{detail_len}", list_script(
            items, intro_len, head_len, detail_len
        )


class TestFiguresFromRows:
    """On an untruncated decode the three tree-walk figures equal forms read
    off the step rows and the output: the pins a row-based bench needs."""

    @pytest.mark.parametrize("block_size", [1, 3, 16])
    @pytest.mark.parametrize("mode", ["apar", "ar"])
    def test_walks_match_rows_and_output(self, mode, block_size):
        from apar.engine import ATTENDED, BATCH, ROW_WIDTH

        decode, make_model = (
            (apar_decode, ReplayModel) if mode == "apar" else (ar_decode, as_linear)
        )
        for name, script in _row_identity_scripts():
            result = decode(list(script.prompt), make_model(script), block_size=block_size)
            trace = result.trace
            assert not trace.truncated, name
            seqs = result.sequences_map()
            rows = trace.rows
            assert mean_attended_tokens(result.tree, seqs) == sum(
                rows[ATTENDED::ROW_WIDTH]
            ) / sum(rows[BATCH::ROW_WIDTH]), name
            out = len(result.output)
            assert flatten_max_cached(result.tree, seqs) == trace.prompt_len + out + 1, name
            assert flatten_mean_attended(result.tree, seqs) == trace.prompt_len + out / 2, name
