import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    RefcountPool,
    bounds_usage,
    cached_tokens,
    check_invariants,
    cut_events,
    recorded_step,
    reference_decode,
    reference_max_cached,
    step_block_demand,
)

from apar.blocks import KvBlockPool
from apar.engine import (
    BATCH,
    DEFAULT_MAX_SEQ_LEN,
    DEFAULT_MAX_STEPS,
    PEAK,
    ROW_WIDTH,
    USED_BLOCKS,
    StepRecord,
    apar_decode,
    apar_step,
    ar_decode,
    run_steps,
)
from apar.metrics import max_cached_tokens
from apar.errors import ProtocolError, ScriptMismatch
from apar.runtime import SequenceGroup, new_group
from apar.script import ReplayModel, as_linear, flatten_script, random_script
from apar.sim import list_script
from apar.tokens import CONTROL_TOKENS, EOS, FORK
from apar.tree import restore


class TestFig3Schedule:
    def test_exact_step_schedule(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        assert result.output == ["a1", "a2", "d1", "d2", "b1"]
        assert result.trace.steps == 7
        assert result.group.thread_count() == 2
        recs = result.trace.records
        assert [r.sampled for r in recs[:3]] == [
            [(0, "a1")], [(0, "a2")], [(0, FORK)]
        ]
        assert recs[3].sampled == [(0, "b1")] and recs[3].forks == [(0, 1)]
        assert recs[4].sampled == [(0, EOS), (1, "d1")]
        assert recs[5].sampled == [(1, "d2")]
        assert recs[6].sampled == [(1, EOS)]
        assert result.trace.content_tokens == 5

    def test_tree_has_three_content_nodes(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        assert len(result.tree.nodes) == 3

    def test_ar_mode(self, fig3_script):
        result = ar_decode(list(fig3_script.prompt), as_linear(fig3_script))
        assert result.output == ["a1", "a2", "d1", "d2", "b1"]
        assert result.trace.steps == 6


class TestDegenerateAndErrors:
    def test_no_fork_model_equals_ar(self):
        script = random_script(7, max_nodes=1, max_node_len=10)
        apar = apar_decode(list(script.prompt), ReplayModel(script))
        ar = ar_decode(list(script.prompt), as_linear(script))
        assert apar.output == ar.output
        assert apar.trace.steps == ar.trace.steps
        assert [r.to_dict() for r in apar.trace.records] == [
            r.to_dict() for r in ar.trace.records
        ]

    def test_step_on_finished_group(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        with pytest.raises(ProtocolError):
            apar_step(result.group, ReplayModel(fig3_script))

    def test_step_refuses_a_thread_out_of_lockstep(self, fig3_script):
        # append_token can advance one thread alone; the step then names
        # that thread before its model call, and leaves it as it was.
        group = new_group(list(fig3_script.prompt), KvBlockPool(block_size=2))
        model = ReplayModel(fig3_script)
        for _ in range(4):
            apar_step(group, model)  # a1 a2 [Fork], then b1 and the fork
        assert list(group.live) == [0, 1]
        length = len(group.live[0].tokens)
        child = group.live[1]
        group.append_token(1, "d1")  # the child runs one token ahead
        before = list(child.tokens), list(child.model_state)
        with pytest.raises(
            ProtocolError,
            match=f"sequence 1 holds {length + 1} tokens but sequence 0 holds {length}",
        ):
            apar_step(group, model)
        assert (child.tokens, child.model_state) == before

    def test_max_steps_truncation(self, fig3_script):
        result = apar_decode(
            list(fig3_script.prompt), ReplayModel(fig3_script), max_steps=3
        )
        assert result.trace.truncated
        assert result.trace.steps == 3
        assert not result.group.live

    def test_max_seq_len_truncation(self, fig3_script):
        result = apar_decode(
            list(fig3_script.prompt), ReplayModel(fig3_script), max_seq_len=4
        )
        assert result.trace.truncated

    @pytest.mark.parametrize("mode", ["apar", "ar"])
    def test_prompt_at_max_seq_len_decodes_nothing(self, mode):
        script = random_script(3, max_nodes=5, max_node_len=4, prompt_len=3)
        decode = apar_decode if mode == "apar" else ar_decode
        model = ReplayModel(script) if mode == "apar" else as_linear(script)
        for max_seq_len in (1, len(script.prompt)):
            result = decode(list(script.prompt), model, max_seq_len=max_seq_len)
            assert result.trace.steps == 0
            assert result.trace.truncated
            assert result.output == []

    @pytest.mark.parametrize("cut", ["max_steps", "max_seq_len"])
    def test_cut_ends_every_live_thread_at_one_length(self, big_tree_script, cut):
        # Four threads are live after step 30: the parent and three children.
        prompt_len = len(big_tree_script.prompt)
        limit = {"max_steps": 30, "max_seq_len": prompt_len + 30}[cut]
        result = apar_decode(
            list(big_tree_script.prompt), ReplayModel(big_tree_script), **{cut: limit}
        )
        assert result.trace.truncated
        assert result.trace.steps == 30
        ended = {sid for rec in result.trace.records for sid in rec.finished}
        cut_threads = [
            s for s in result.group.sequences.values() if s.id not in ended
        ]
        assert len(cut_threads) == 4
        assert {len(s.tokens) for s in cut_threads} == {prompt_len + 30 + 1}
        assert all(s.tokens[-1] == EOS for s in result.group.sequences.values())
        assert not result.group.live

    def test_ar_truncation(self, fig3_script):
        result = ar_decode(
            list(fig3_script.prompt), as_linear(fig3_script), max_steps=2
        )
        assert result.trace.truncated


class TestBigTree:
    def test_ar_steps(self, big_tree_script):
        result = ar_decode(list(big_tree_script.prompt), as_linear(big_tree_script))
        assert len(flatten_script(big_tree_script)) == 184
        assert result.trace.steps == 185

    def test_apar_schedule(self, big_tree_script):
        result = apar_decode(list(big_tree_script.prompt), ReplayModel(big_tree_script))
        # Parent thread: 4 intro + 5 * (6 head + [Fork]) + [EOS] = 40 steps.
        parent = result.group.sequences[0]
        prompt_len = len(big_tree_script.prompt)
        assert len(parent.tokens) - prompt_len == 40
        # Last child forks during step 40, samples from 41, ends with its
        # [EOS] at step 71; one token per live thread per step throughout.
        assert result.trace.steps == 71
        assert result.group.thread_count() == 6
        assert result.output == flatten_script(big_tree_script)

    def test_critical_path_equals_longest_thread(self, big_tree_script):
        result = apar_decode(list(big_tree_script.prompt), ReplayModel(big_tree_script))
        prompt_len = len(big_tree_script.prompt)
        longest = max(
            len(s.tokens) - prompt_len for s in result.group.sequences.values()
        )
        assert result.trace.steps == longest


class TestProperties:
    def test_restore_equivalence_sample(self):
        for seed in range(50):
            script = random_script(seed, max_nodes=17, max_node_len=8)
            apar = apar_decode(list(script.prompt), ReplayModel(script))
            ar = ar_decode(list(script.prompt), as_linear(script))
            assert apar.output == ar.output, seed

    def test_critical_path_property_random(self):
        for seed in range(25):
            script = random_script(seed, max_nodes=13, max_node_len=6)
            result = apar_decode(list(script.prompt), ReplayModel(script))
            prompt_len = len(script.prompt)
            longest = max(
                len(s.tokens) - prompt_len for s in result.group.sequences.values()
            )
            assert result.trace.steps == longest, seed

    def test_thread_count_equals_one_plus_forks(self):
        for seed in range(25):
            script = random_script(seed, max_nodes=15, max_node_len=4)
            result = apar_decode(list(script.prompt), ReplayModel(script))
            forks = sum(len(r.forks) for r in result.trace.records)
            assert len(result.group.sequences) == 1 + forks

    @pytest.mark.parametrize("block_size", [1, 2, 3, 4, 5, 16])
    @pytest.mark.parametrize("make_model", [ReplayModel, as_linear], ids=["apar", "ar"])
    def test_step_block_demand_is_the_step_allocation(self, make_model, block_size):
        # The oracle reads the step's allocations off the live threads before
        # it runs; the pool and its refcount shadow count them as they
        # happen.
        steps = 0
        for seed in range(60):
            script = random_script(seed, max_nodes=21, max_node_len=6, prompt_len=1 + seed % 5)
            group = new_group(list(script.prompt), KvBlockPool(block_size))
            shadow = RefcountPool(block_size)
            tables = shadow.start(len(script.prompt))
            model = make_model(script)
            while group.live:
                demand = step_block_demand(group)
                before = [(p.used_blocks, p.allocations) for p in (group.pool, shadow)]
                rec = StepRecord(step=steps + 1)
                recorded_step(group, model, rec)
                freed = shadow.replay(tables, rec.sampled, rec.forks)
                for pool, (used, allocations) in zip((group.pool, shadow), before):
                    assert pool.used_blocks - used + freed == demand, (seed, steps)
                    assert pool.allocations - allocations == demand, (seed, steps)
                steps += 1
        assert steps > 1000

    @pytest.mark.parametrize("block_size", [1, 2, 3, 4, 5, 16])
    @pytest.mark.parametrize("make_model", [ReplayModel, as_linear], ids=["apar", "ar"])
    def test_step_counts_match_the_record(self, make_model, block_size):
        # The step loop reads only the counts apar_step returns; the
        # reference step fills a record as it goes.  Both describe one
        # step, and filling a record must not change what the step does.
        steps = 0
        for seed in range(60):
            script = random_script(seed, max_nodes=21, max_node_len=6, prompt_len=1 + seed % 5)
            traced = new_group(list(script.prompt), KvBlockPool(block_size))
            plain = new_group(list(script.prompt), KvBlockPool(block_size))
            shadow = RefcountPool(block_size)
            tables = shadow.start(len(script.prompt))
            traced_model, plain_model = make_model(script), make_model(script)
            while traced.live:
                rec = StepRecord(step=steps + 1)
                recorded_step(traced, traced_model, rec)
                shadow.replay(tables, rec.sampled, rec.forks)
                counts = apar_step(plain, plain_model)[:3]
                content = sum(1 for _, tok in rec.sampled if tok not in CONTROL_TOKENS)
                assert counts == (len(rec.sampled), rec.attended_sum, content), (seed, steps)
                assert plain.sequences_map() == traced.sequences_map()
                assert step_block_demand(plain) == step_block_demand(traced)
                # The step moves the pool as the per-token path moves it,
                # and as the refcount pool moves block for block.
                pool = plain.pool
                assert pool.usage_snapshot() == traced.pool.usage_snapshot()
                assert pool.usage_snapshot() == shadow.usage_snapshot()
                assert pool.allocations == traced.pool.allocations == shadow.allocations
                assert (plain.logical_slots, plain.logical_peak) == (
                    traced.logical_slots, traced.logical_peak
                )
                assert list(plain.live) == list(traced.live) == list(tables)
                for sid, seq in plain.live.items():
                    assert cached_tokens(tables[sid], block_size) == len(seq.tokens)
                steps += 1
            assert not plain.live
        assert steps > 1000

    @pytest.mark.parametrize("block_size", [1, 3, 16])
    def test_steps_on_a_shared_pool_keep_the_peak(self, block_size):
        # Two groups step in turn on one pool, which nothing resets; a twin
        # pool runs the same steps but is set back to its used blocks
        # before each, so its peak after a step is that step's own.  The
        # shared pool's peak is the maximum over both groups' steps so far:
        # a step never sets it back.
        below = 0  # steps whose own peak is below the peak so far
        for seed in range(0, 40, 2):
            scripts = [
                random_script(seed + k, max_nodes=15, max_node_len=6, prompt_len=1 + k)
                for k in range(2)
            ]
            shared, twin = KvBlockPool(block_size), KvBlockPool(block_size)
            runs = [
                [(new_group(list(s.prompt), pool), ReplayModel(s)) for s in scripts]
                for pool in (shared, twin)
            ]
            step_peaks = [twin.peak_used]
            while any(group.live for group, _ in runs[0]):
                for (group, model), (twin_group, twin_model) in zip(*runs):
                    if not group.live:
                        continue
                    twin.peak_used = twin.usage_snapshot()[0]
                    row = apar_step(group, model)
                    apar_step(twin_group, twin_model)
                    step_peaks.append(twin.peak_used)
                    assert shared.peak_used == max(step_peaks), seed
                    # The step on the pool never reset returns its own peak.
                    assert row[PEAK] == twin.peak_used, seed
                    below += twin.peak_used < shared.peak_used
            assert shared.usage_snapshot()[:2] == (0, 0)
        assert below > 100

    def test_standalone_pool_has_no_cap(self):
        # Within the decode limits, but it needs more than 65,536 one-slot blocks.
        script = list_script(items=44, detail_len=1720)
        result = apar_decode(list(script.prompt), ReplayModel(script), block_size=1)
        assert not result.trace.truncated
        assert result.output == flatten_script(script)
        assert result.group.pool.peak_used > 1 << 16

    def test_strip_false_restore_covers_all_generated(self):
        for seed in range(20):
            script = random_script(seed, max_nodes=9, max_node_len=5)
            result = apar_decode(list(script.prompt), ReplayModel(script))
            seqs = result.sequences_map()
            full = restore(result.tree, seqs, strip_control=False)
            total_generated = sum(len(r.sampled) + len(r.forks) for r in result.trace.records)
            assert len(full) == total_generated

    def test_zero_or_two_pointer_rule_on_engine_trees(self):
        from apar.tree import validate

        for seed in range(25):
            script = random_script(seed, max_nodes=15, max_node_len=5)
            result = apar_decode(list(script.prompt), ReplayModel(script))
            assert validate(result.tree, result.sequences_map()) == []
            check_invariants(result.group)

    def test_trace_jsonl_round_trip(self, fig3_script):
        import json

        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        lines = result.trace.to_jsonl().strip().split("\n")
        header = json.loads(lines[0])
        assert header["steps"] == 7 and header["mode"] == "apar"
        assert len(lines) == 1 + 7
        assert json.loads(lines[4])["forks"] == [[0, 1]]


class _ContextLengths:
    """A model wrapper that records each context length it is shown."""

    def __init__(self, model):
        self.model = model
        self.lengths = []

    def next_token(self, context, state):
        self.lengths.append(len(context))
        return self.model.next_token(context, state)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["apar", "ar"]),
    st.sampled_from([1, 2, 3, 5, 16]),
)
def test_live_threads_hold_prompt_plus_steps(seed, mode, block_size):
    # The decode loop cuts on len(prompt) + steps alone, which holds only if
    # every thread the step is about to advance has exactly that length.
    script = random_script(seed, max_nodes=21, max_node_len=6, prompt_len=1 + seed % 5)
    decode, make_model = (apar_decode, ReplayModel) if mode == "apar" else (ar_decode, as_linear)
    model = _ContextLengths(make_model(script))
    result = decode(list(script.prompt), model, block_size=block_size)
    prompt_len = len(script.prompt)
    assert model.lengths == [
        prompt_len + rec.step - 1 for rec in result.trace.records for _ in rec.sampled
    ]
    assert not result.trace.truncated


def _same_trace(mode, script, block_size, limits) -> bool:
    """Decode ``script`` and check its derived trace against the reference
    loop's recorded one; return whether the run was cut."""
    decode, make_model = (apar_decode, ReplayModel) if mode == "apar" else (ar_decode, as_linear)
    prompt = list(script.prompt)
    result = decode(prompt, make_model(script), block_size=block_size, **limits)
    ref = reference_decode(
        mode,
        prompt,
        make_model(script),
        limits.get("max_steps", DEFAULT_MAX_STEPS),
        limits.get("max_seq_len", DEFAULT_MAX_SEQ_LEN),
        block_size,
    )
    assert result.trace.to_jsonl() == ref.to_jsonl(), (mode, block_size, limits)
    assert result.sequences_map() == ref.sequences
    assert max_cached_tokens(result.trace) == reference_max_cached(ref)
    return ref.truncated


@pytest.mark.parametrize("mode", ["apar", "ar"])
def test_derived_trace_is_the_recorded_trace(mode):
    # Each script decodes whole, cut by max_steps and cut by max_seq_len;
    # the cuts include 0 steps and a cut in the step a child is forked.
    runs = cut = 0
    for seed in range(300):
        script = random_script(seed, max_nodes=21, max_node_len=6, prompt_len=1 + seed % 5)
        prompt_len = len(script.prompt)
        for limits in ({}, {"max_steps": seed % 17}, {"max_seq_len": prompt_len + seed % 13}):
            cut += _same_trace(mode, script, (1, 3, 16)[seed % 3], limits)
            runs += 1
    for script in (list_script(), list_script(items=9, detail_len=5), list_script(items=3, intro_len=0)):
        prompt_len = len(script.prompt)
        for block_size in (1, 3, 16):
            for limits in ({}, {"max_steps": 40}, {"max_seq_len": prompt_len + 25}):
                cut += _same_trace(mode, script, block_size, limits)
                runs += 1
    assert 300 < cut < runs - 300


# The largest list scripts of each shape whose decode and reference stay
# near 100 MB: details of 8,000 tokens (decode-bench's long scripts hold
# about 400), and 1,000 items, where every fork copies a long context.
@pytest.mark.parametrize(
    "items, detail_len", [(12, 8000), (1000, 5)], ids=["long-detail", "many-item"]
)
def test_large_list_decode_is_the_recorded_trace(items, detail_len):
    limits = {"max_steps": 100_000, "max_seq_len": 100_000}
    assert not _same_trace("apar", list_script(items=items, detail_len=detail_len), 16, limits)


class _CheckedTokens:
    """A model wrapper that counts the context tokens each call must check:
    those past the ``checked`` count its state holds, or all of them."""

    def __init__(self, model):
        self.model = model
        self.calls = self.checked = 0

    def next_token(self, context, state):
        self.calls += 1
        self.checked += len(context) - (state[0] if state else 0)
        return self.model.next_token(context, state)


@pytest.mark.parametrize("items", [50, 200, 2000])
def test_forked_child_checks_only_new_tokens(items):
    # A child starts from its parent's state, so its first call checks its
    # [Child] alone, not the context it inherited: the checked tokens per
    # sampled token stay bounded however many forks the decode runs.
    script = list_script(items=items, detail_len=5)
    model = _CheckedTokens(ReplayModel(script))
    result = apar_decode(list(script.prompt), model, max_steps=1 << 30, max_seq_len=1 << 30)
    assert result.output == flatten_script(script)
    assert result.group.thread_count() == items + 1
    assert model.checked <= 2 * model.calls


@pytest.mark.parametrize("block_size", [1, 2, 3, 4, 5, 16])
def test_owning_pool_matches_the_refcount_pool(block_size):
    # The pool whose blocks belong to tree nodes and the pool that counts
    # references per block, fed with the same decode's events, hold the
    # same blocks and slots after every step, with the same allocations
    # and the same peak within it, whole and cut.
    scripts = [
        random_script(seed, max_nodes=21, max_node_len=6, prompt_len=1 + seed % 5)
        for seed in range(150)
    ]
    scripts += [
        list_script(),
        list_script(items=9, detail_len=5),
        list_script(items=3, intro_len=0),
        list_script(items=12, head_len=1, detail_len=17),
    ]
    cuts = 0
    for script in scripts:
        for make_model in (ReplayModel, as_linear):
            for limit in (math.inf, 7, 30):
                group = new_group(list(script.prompt), KvBlockPool(block_size))
                rows, cut = run_steps(group, make_model(script), limit)
                ref = new_group(list(script.prompt), KvBlockPool(block_size))
                model = make_model(script)
                shadow = RefcountPool(block_size)
                tables = shadow.start(len(script.prompt))
                peak = shadow.peak_used
                for t in range(len(rows) // ROW_WIDTH):
                    # Set back before each step, so its peak is the row's PEAK.
                    shadow.peak_used = shadow.used_blocks
                    rec = StepRecord(step=t + 1)
                    recorded_step(ref, model, rec)
                    shadow.replay(tables, rec.sampled, rec.forks)
                    peak = max(peak, shadow.peak_used)
                    row = rows[t * ROW_WIDTH + USED_BLOCKS : t * ROW_WIDTH + PEAK + 1]
                    assert row == [
                        shadow.used_blocks, shadow.used_slots, shadow.allocations,
                        shadow.peak_used,
                    ], (script.prompt, make_model, limit, t)
                assert bool(tables) == cut
                cuts += cut
                shadow.replay(tables, cut_events(tables))
                shadow.peak_used = max(peak, shadow.peak_used)
                assert group.pool.usage_snapshot() == shadow.usage_snapshot() == (
                    0, 0, shadow.peak_used
                )
                assert group.pool.allocations == shadow.allocations
    assert cuts > 300


def test_fork_and_release_touch_few_blocks_per_token(monkeypatch):
    # The pool's calls and the release walk's node visits per generated
    # token stay under one constant however many forks share the prefix:
    # no call or visit runs per block a thread shares.
    calls = 0

    def counting(method):
        def counted(*args):
            nonlocal calls
            calls += 1
            return method(*args)

        return counted

    for name in ("take_block", "append_slot", "fork_table", "release_sequence"):
        monkeypatch.setattr(KvBlockPool, name, counting(getattr(KvBlockPool, name)))
    walk = SequenceGroup._release_logical

    def counting_walk(self, seq):
        # The walk visits each node it frees, and the one it stops at.
        nonlocal calls
        nid = seq.current_node
        while nid is not None:
            calls += 1
            if self._node_live_refs[nid] > 1:
                break
            nid = self._parents.get(nid)
        return walk(self, seq)

    monkeypatch.setattr(SequenceGroup, "_release_logical", counting_walk)
    per_token = {}
    for items in (50, 200, 2000):
        calls = 0
        script = list_script(items=items, detail_len=5)
        result = apar_decode(
            list(script.prompt), ReplayModel(script), max_steps=1 << 30, max_seq_len=1 << 30
        )
        assert result.output == flatten_script(script)
        per_token[items] = calls / result.trace.content_tokens
    assert max(per_token.values()) < 1, per_token


@pytest.mark.parametrize("block_size", [1, 3, 16])
def test_no_block_is_in_two_tables(block_size):
    # A thread appends into its shadow table's last block, and no other
    # live shadow table holds that block, nor does it have a second
    # reference: no thread writes a block another thread reads.  The
    # shadow holds what the pool counts and what the bounds rule derives
    # from the tree's nodes.
    scripts = [random_script(seed, max_nodes=21, max_node_len=9) for seed in range(30)]
    scripts += [list_script(), list_script(items=30, detail_len=5)]
    for script in scripts:
        group = new_group(list(script.prompt), KvBlockPool(block_size))
        shadow = RefcountPool(block_size)
        tables = shadow.start(len(script.prompt))
        model = ReplayModel(script)
        while group.live:
            rec = StepRecord(step=0)
            recorded_step(group, model, rec)
            shadow.replay(tables, rec.sampled, rec.forks)
            for sid, table in tables.items():
                last = table.blocks[-1]
                assert shadow.refcount[last] == 1, (sid, last)
                assert all(
                    last not in other.blocks for oid, other in tables.items() if oid != sid
                ), (sid, last)
            used = shadow.usage_snapshot()[:2]
            assert group.pool.usage_snapshot()[:2] == used
            assert bounds_usage(group) == used
        assert shadow.usage_snapshot()[:2] == (0, 0)


def _step_by_step(group, model, limit=math.inf):
    """run_steps as a loop of apar_step calls: the reference for a
    lone-thread stretch."""
    rows, steps = [], 0
    while group.live and steps < limit:
        rows.extend(apar_step(group, model))
        steps += 1
    cut = bool(group.live)
    for seq_id in list(group.live):
        group.append_token(seq_id, EOS)
    return rows, cut


def _counters(group):
    pool = group.pool
    return (
        pool.used_blocks, pool.used_slots, pool.allocations, pool.peak_used,
        group.logical_slots, group.logical_peak,
    )


def _stretches(group, rows):
    """The step numbers of each lone-thread stretch of an uncut run over
    ``group``: the runs of steps with one live thread whose last token is
    not [Fork].  A thread live at the last step holds every token a lone
    thread sampled, at its lockstep position."""
    prompt_len = len(group.prompt)
    tokens = max((seq.tokens for seq in group.sequences.values()), key=len)
    stretches, last = [], -1
    for t in range(1, len(rows) // ROW_WIDTH + 1):
        if rows[(t - 1) * ROW_WIDTH + BATCH] == 1 and tokens[prompt_len + t - 2] != FORK:
            if last != t - 1:
                stretches.append([])
            stretches[-1].append(t)
            last = t
    return stretches


def _uncut(script, make_model, block_size):
    """An uncut run_steps run of ``script``: its rows and its stretches."""
    group = new_group(list(script.prompt), KvBlockPool(block_size))
    rows, _ = run_steps(group, make_model(script))
    return rows, _stretches(group, rows)


_STRETCH_SCRIPTS = [
    random_script(seed, max_nodes=21, max_node_len=9, prompt_len=1 + seed % 5)
    for seed in range(40)
] + [list_script(), list_script(items=9, detail_len=5), list_script(items=3, intro_len=0)]


@pytest.mark.parametrize("block_size", [1, 2, 3, 16])
@pytest.mark.parametrize("make_model", [ReplayModel, as_linear], ids=["apar", "ar"])
def test_lone_stretch_is_the_step_by_step_run(make_model, block_size):
    # run_steps steps a lone thread in its own loop; a loop of apar_step
    # calls must leave the same rows, threads, model states and counters,
    # uncut, cut inside a stretch and cut on the step that ends one.
    cuts = {"inside": 0, "end": 0}
    for script in _STRETCH_SCRIPTS:
        whole, stretches = _uncut(script, make_model, block_size)
        inside = [t for stretch in stretches for t in stretch[:-1]]
        # The run's last step ends the run, not just a stretch: no cut.
        ends = [stretch[-1] for stretch in stretches if stretch[-1] < len(whole) // ROW_WIDTH]
        limits = {"whole": math.inf}
        if inside:
            limits["inside"] = inside[len(inside) // 2]
        if ends:
            limits["end"] = ends[len(ends) // 2]
        for kind, limit in limits.items():
            runs = []
            for run in (run_steps, _step_by_step):
                group = new_group(list(script.prompt), KvBlockPool(block_size))
                model = _ContextLengths(make_model(script))
                rows, cut = run(group, model, limit)
                assert len(model.lengths) == sum(rows[BATCH::ROW_WIDTH])
                states = {sid: seq.model_state for sid, seq in group.sequences.items()}
                runs.append((rows, cut, group.sequences_map(), states, _counters(group)))
            assert runs[0] == runs[1], (script.prompt, block_size, kind)
            if kind in cuts:
                cuts[kind] += runs[0][1]
    assert cuts["inside"] > 20, cuts
    if make_model is ReplayModel:  # an ar run's one stretch ends the run
        assert cuts["end"] > 20, cuts


class _FailsAt:
    """A model wrapper whose ``k``-th call raises ScriptMismatch."""

    def __init__(self, model, k):
        self.model, self.k = model, k

    def next_token(self, context, state):
        self.k -= 1
        if not self.k:
            raise ScriptMismatch("injected failure")
        return self.model.next_token(context, state)


@pytest.mark.parametrize("block_size", [1, 3, 16])
@pytest.mark.parametrize("make_model", [ReplayModel, as_linear], ids=["apar", "ar"])
def test_a_raise_in_a_lone_stretch_leaves_the_counters_of_the_steps_run(make_model, block_size):
    # The stretch keeps the counters in locals; when the model raises on
    # its k-th call, the pool and the group hold what k - 1 steps by
    # apar_step leave, the step that raised taking nothing.
    raised = 0
    for script in _STRETCH_SCRIPTS[::3]:
        rows, stretches = _uncut(script, make_model, block_size)
        calls = [0]  # model calls before each step
        for t in range(len(rows) // ROW_WIDTH):
            calls.append(calls[-1] + rows[t * ROW_WIDTH + BATCH])
        # Each stretch's first step, one inside it and its last.
        steps = {t for s in stretches for t in (s[0], s[len(s) // 2], s[-1])}
        for t in sorted(steps):
            after = []
            for run in (run_steps, _step_by_step):
                group = new_group(list(script.prompt), KvBlockPool(block_size))
                with pytest.raises(ScriptMismatch, match="injected"):
                    run(group, _FailsAt(make_model(script), calls[t - 1] + 1))
                after.append((group.sequences_map(), _counters(group)))
            assert after[0] == after[1], (script.prompt, block_size, t)
            raised += 1
    assert raised > 20


@pytest.mark.parametrize("block_size", [1, 3, 16])
@pytest.mark.parametrize("make_model", [ReplayModel, as_linear], ids=["apar", "ar"])
def test_a_raise_leaves_the_pool_peak_of_the_run(make_model, block_size):
    # The pool's peak is the run's at every exit: when the model raises on a
    # step's first call, it is the larger of the prompt's blocks and the
    # PEAK rows of the steps before, not the blocks held when the step began.
    below = 0  # raises where those blocks are below the run's peak
    for script in _STRETCH_SCRIPTS[::2]:
        rows, _ = _uncut(script, make_model, block_size)
        used = peak = -(-len(script.prompt) // block_size)
        calls = 0  # model calls before the step
        for t in range(len(rows) // ROW_WIDTH):
            group = new_group(list(script.prompt), KvBlockPool(block_size))
            with pytest.raises(ScriptMismatch, match="injected"):
                run_steps(group, _FailsAt(make_model(script), calls + 1))
            assert group.pool.peak_used == peak, (script.prompt, block_size, t)
            below += used < peak
            row = rows[t * ROW_WIDTH : (t + 1) * ROW_WIDTH]
            used, peak, calls = row[USED_BLOCKS], max(peak, row[PEAK]), calls + row[BATCH]
    if make_model is ReplayModel:  # an ar run frees no block before its end
        assert below > 20, below


def _recorded_steps(group, model):
    """Step ``group`` with the per-token reference step until it finishes."""
    while group.live:
        recorded_step(group, model, StepRecord(step=0))


@pytest.mark.parametrize("block_size", [1, 3, 16])
def test_a_raise_mid_step_counts_the_threads_that_appended(block_size):
    # When the model raises on a thread of a step, the threads before it
    # have appended: the pool holds the blocks and slots the bounds rule
    # derives from the tree, and the group the logical slots the per-token
    # reference step counts, which counts each token as it appends it.
    script = list_script(items=4, detail_len=6)
    rows, _ = _uncut(script, ReplayModel, block_size)
    mid = 0  # raises after another thread of the step appended
    k = 0
    for t in range(len(rows) // ROW_WIDTH):
        for i in range(rows[t * ROW_WIDTH + BATCH]):
            k += 1
            runs = []
            for step in (run_steps, _recorded_steps):
                group = new_group(list(script.prompt), KvBlockPool(block_size))
                with pytest.raises(ScriptMismatch, match="injected"):
                    step(group, _FailsAt(ReplayModel(script), k))
                runs.append(group)
            group, ref = runs
            assert group.sequences_map() == ref.sequences_map()
            assert group.pool.usage_snapshot()[:2] == bounds_usage(group), (t, i)
            assert _counters(group) == _counters(ref), (t, i)
            mid += i > 0
    assert mid > 20, mid

