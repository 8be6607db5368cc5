"""Acceptance suite: one test per criterion, stated tolerances pinned.

The conftest hook prints a PASS/FAIL line per criterion after the run.
"""

import itertools
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus_data import CORPUS, EXPECTED_COUNTS  # noqa: E402
from oracles import RefcountPool, cached_tokens  # noqa: E402

from apar.attention import build_loss_mask, build_training_mask, linearize_script
from apar.blocks import KvBlockPool
from apar.engine import apar_decode, ar_decode, run_steps
from apar.extract import (
    Conversation,
    build_training_sample,
    classify_response,
    extract_ordered_list,
)
from apar.metrics import (
    flatten_max_cached,
    flatten_mean_attended,
    max_cached_tokens,
    mean_attended_tokens,
    saved_ratio,
)
from apar.runtime import new_group
from apar.script import ReplayModel, as_linear, flatten_script, random_script
from apar.sim import default_config, list_script, run_simulation
from apar.tokens import CHILD, EOS, FORK
from apar.tree import path_to_root


def test_criterion_01_restore_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for seed in range(200):
        script = random_script(seed, max_nodes=32, max_node_len=16)
        apar = apar_decode(list(script.prompt), ReplayModel(script))
        ar = ar_decode(list(script.prompt), as_linear(script))
        if apar.output != ar.output:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_mask_oracle():
    checked = 0
    seed = 0
    while checked < 100:
        script = random_script(seed, max_nodes=8, max_node_len=5)
        seed += 1
        sample, tree = linearize_script(script)
        if len(sample.tokens) > 64:
            continue
        mask = build_training_mask(sample, tree)
        n = len(sample.tokens)
        oracle = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1):
                if j < sample.prompt_len:
                    oracle[i, j] = True
                elif sample.node_of[i] != -1 and sample.node_of[j] != -1:
                    ni, nj = sample.node_of[i], sample.node_of[j]
                    if ni == nj or nj in path_to_root(tree, ni)[1:]:
                        oracle[i, j] = True
        assert np.array_equal(mask, oracle), f"seed {seed - 1}"
        loss = build_loss_mask(sample)
        expected_false = {
            i
            for i in range(n)
            if i < sample.prompt_len or sample.tokens[i] == CHILD
        }
        assert {i for i in range(n) if not loss[i]} == expected_false
        checked += 1


def test_criterion_03_fork_copies_at_most_one_block():
    for parent_len in range(0, 161):
        pool = KvBlockPool(block_size=16)
        for i in range(parent_len):
            pool.append_slot(i)
        used_before, slots_before, _ = pool.usage_snapshot()
        allocations = pool.allocations
        pool.fork_table(parent_len)
        # One block for the child: the copy of a partial last block, or a
        # fresh one.  It holds the parent_len % 16 copied slots plus the
        # [Child]; the parent's full blocks are copied nowhere.
        assert pool.allocations == allocations + 1, parent_len
        assert pool.usage_snapshot()[:2] == (
            used_before + 1, slots_before + parent_len % 16 + 1
        ), parent_len
        # The same fork on the refcount pool: the child shares the full
        # blocks by reference and its one new block copies the rest.
        shadow = RefcountPool(block_size=16)
        parent = shadow.start(parent_len)[0]
        child = shadow.fork_table(parent)
        shadow.append_slot(child)  # the [Child]
        assert child.blocks == parent.blocks[: parent_len // 16] + [shadow.allocations - 1]
        assert cached_tokens(child, 16) == parent_len + 1, parent_len

    # Every block returns to the pool, however a decode of a random script
    # is cut: at its [EOS]s, or by the cut's own.
    cuts = 0
    for seed in range(500):
        rng = random.Random(seed)
        script = random_script(seed, max_nodes=17, max_node_len=12, prompt_len=rng.randint(1, 20))
        pool = KvBlockPool(block_size=16)
        group = new_group(list(script.prompt), pool)
        model = ReplayModel(script) if seed % 4 else as_linear(script)
        _, cut = run_steps(group, model, rng.choice([rng.randint(0, 40), float("inf")]))
        cuts += cut
        assert not group.live, seed
        assert pool.usage_snapshot()[:2] == (0, 0), seed
    assert 100 < cuts < 400


def test_criterion_04a_fig3_toy_schedule(fig3_script):
    result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
    recs = result.trace.records
    assert result.trace.steps == 7
    assert [r.sampled for r in recs] == [
        [(0, "a1")],
        [(0, "a2")],
        [(0, FORK)],
        [(0, "b1")],
        [(0, EOS), (1, "d1")],
        [(1, "d2")],
        [(1, EOS)],
    ]
    assert recs[3].forks == [(0, 1)]
    assert result.output == ["a1", "a2", "d1", "d2", "b1"]


def _list_steps(items, intro_len, head_len, detail_len):
    """Exact (apar, ar) step counts of a list script under the 04a fork timing.

    The parent emits the intro and each head with its [Fork], then [EOS].
    The last detail thread gets [Child] in the parent's [EOS] step, samples
    its detail from the step after, then its own [EOS]. The sequential
    baseline samples every content token, then [EOS].
    """
    apar = intro_len + items * (head_len + 1) + detail_len + 2
    ar = intro_len + items * (head_len + detail_len) + 1
    return apar, ar


def _decode_both(script):
    ar = ar_decode(list(script.prompt), as_linear(script))
    apar = apar_decode(list(script.prompt), ReplayModel(script))
    flat = flatten_script(script)
    assert not ar.trace.truncated and not apar.trace.truncated
    assert ar.output == flat and apar.output == flat
    return apar.trace.steps, ar.trace.steps


def test_criterion_04b_big_tree_step_speedup(big_tree_script):
    apar_steps, ar_steps = _decode_both(big_tree_script)
    assert (apar_steps, ar_steps) == _list_steps(5, 4, 6, 30) == (71, 185)
    assert Fraction(ar_steps, apar_steps) == Fraction(185, 71)

    for items, intro_len, head_len, detail_len in itertools.product(
        (1, 3, 5), (0, 4), (1, 6), (1, 8, 30)
    ):
        script = list_script(items, intro_len, head_len, detail_len)
        assert _decode_both(script) == _list_steps(
            items, intro_len, head_len, detail_len
        ), (items, intro_len, head_len, detail_len)


def test_criterion_05_saved_ratio_reproduces_reported_tables():
    assert saved_ratio(303.2, 417.2) == pytest.approx(27.3, abs=0.05)
    assert saved_ratio(513.3, 590.6) == pytest.approx(13.1, abs=0.05)
    assert saved_ratio(166.2, 256.4) == pytest.approx(35.2, abs=0.05)


@pytest.fixture(scope="module")
def budget_sweeps():
    budgets = [round(0.1 * k, 1) for k in range(1, 10)]
    start = time.perf_counter()
    reports = {
        mode: {
            b: run_simulation(replace(default_config(mode=mode), cache_budget_fraction=b))
            for b in budgets
        }
        for mode in ("apar", "ar")
    }
    elapsed = time.perf_counter() - start
    return budgets, reports, elapsed


def test_criterion_06a_throughput_ratio(budget_sweeps):
    budgets, reports, elapsed = budget_sweeps
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    for budget in [b for b in budgets if b >= 0.3]:
        apar = reports["apar"][budget].summary["throughput"]
        ar = reports["ar"][budget].summary["throughput"]
        assert apar >= 1.2 * ar, (budget, apar, ar)


# Both modes preempt the same number of times at every budget of this sweep:
# 495, 205, 110, 60, 30 and 15 from 0.1 to 0.6, then 0 from 0.7 up.  The
# lockstep waves of identical requests set that count, not the cache saving,
# so 06b compares throughput, not preemptions.
def test_criterion_06b_cache_budget_to_match_ar_peak(budget_sweeps):
    budgets, reports, elapsed = budget_sweeps
    assert elapsed < 30.0
    ar_tputs = {b: reports["ar"][b].summary["throughput"] for b in budgets}
    ar_peak = max(ar_tputs.values())
    ar_needs = min(b for b, t in ar_tputs.items() if t >= ar_peak - 1e-9)
    apar_reaches = min(
        (
            b
            for b in budgets
            if reports["apar"][b].summary["throughput"] >= ar_peak
        ),
        default=None,
    )
    assert apar_reaches is not None
    assert apar_reaches <= 0.5 * ar_needs, (apar_reaches, ar_needs)


def test_criterion_06c_latency_at_matched_concurrency(budget_sweeps):
    budgets, reports, elapsed = budget_sweeps
    assert elapsed < 30.0
    apar = reports["apar"][0.9].summary["latency_mean"]
    ar = reports["ar"][0.9].summary["latency_mean"]
    assert apar <= 0.8 * ar, (apar, ar)


def test_criterion_07_extractor_rules():
    from apar.tree import restore, validate

    counts = {"ordered_list": 0, "paragraph": 0, "unstructured": 0}
    for entry in CORPUS:
        kind = classify_response(entry["assistant"])
        assert kind == entry["kind"], entry["id"]
        counts[kind] += 1
        if entry["not_list"]:
            assert extract_ordered_list(entry["assistant"]) is None, entry["id"]
        conv = Conversation(
            entry["id"],
            [("user", entry["user"]), ("assistant", entry["assistant"])],
        )
        sample = build_training_sample(conv, 1)
        assert validate(sample.tree, {0: sample.sample.tokens}) == []
        if kind != "unstructured":
            restored = restore(sample.tree, {0: sample.sample.tokens})
            assert " ".join(restored) == " ".join(entry["assistant"].split()), entry["id"]
    assert counts == EXPECTED_COUNTS


def test_criterion_08a_cache_inequality():
    # Each fork caches [Fork], [Child] and the child's own [EOS], none of
    # which the flatten reference holds. A thread releases its leaf, [EOS]
    # included, as it finishes, so at most `forks` of the `forks + 1` [EOS]
    # slots are cached together: content counts once and control tokens add
    # at most 3 * forks - 1. When threads finish nearly together nothing else
    # is released before the peak, so one script may exceed the reference;
    # the saving is a ratio of means over the population, as the paper
    # reports it.
    checked = 0
    peaks = []
    flats = []
    for seed in range(400):
        script = random_script(seed, max_nodes=9, max_node_len=16)
        if all(n.first_child is None for n in script.nodes.values()):
            continue
        if any(len(n.tokens) < 8 for n in script.nodes.values()):
            continue
        result = apar_decode(list(script.prompt), ReplayModel(script))
        seqs = result.sequences_map()
        forks = sum(len(rec.forks) for rec in result.trace.records)
        peak = max_cached_tokens(result.trace)
        flat = flatten_max_cached(result.tree, seqs)
        assert peak <= flat + 3 * forks - 1, seed
        peaks.append(peak)
        flats.append(flat)
        checked += 1
    assert checked >= 20
    assert sum(peaks) / checked < sum(flats) / checked


def test_criterion_08b_attended_inequality():
    checked = 0
    for seed in range(400):
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
    assert checked >= 20
