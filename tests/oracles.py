"""Reference implementations the tests check the program against.

The program calls none of these: each one states a figure or a walk a
second way, so a test can compare it with what the program produced.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Sequence as Seq

import numpy as np

from apar.attention import LinearizedSample, _prompt_len, _raise_first_bad
from apar.blocks import DEFAULT_BLOCK_SIZE, KvBlockPool
from apar.engine import DecodeTrace, LanguageModel, StepRecord
from apar.errors import (
    ProtocolError,
    ScriptMismatch,
    SimulationError,
    SimulationInvariantError,
    TreeError,
)
from apar.extract import (
    _AMBIGUOUS_RE,
    _SENTENCE_END_RE,
    LIST_ITEM_RE,
    MIN_DETAIL_CHARS,
    MIN_LIST_ITEMS,
)
from apar.runtime import SequenceGroup, new_group
from apar.script import (
    LinearModel,
    ReplayModel,
    ScriptNode,
    ScriptTree,
    as_linear,
    chain_nodes,
    flatten_script,
)
from apar.sim import SimConfig, SimReport, SimSample, StepCostModel
from apar.tokens import CHILD, CONTROL_TOKENS, EOS, FORK
from apar.tree import ParagraphTree, preorder, restore


def linearize_group(
    tree: ParagraphTree, sequences: Mapping[int, Seq[str]]
) -> LinearizedSample:
    """Linearize a decoded group; control tokens are already in the slices."""
    root_seq = sequences[tree.nodes[tree.root].seq]
    tokens: list[str] = list(root_seq[: tree.prompt_len])
    node_of: list[int] = [-1] * tree.prompt_len
    for node in preorder(tree.root, tree.nodes):
        seq = sequences[node.seq]
        start, end = node.slice_bounds(len(seq))
        tokens.extend(seq[start:end])
        node_of.extend([node.id] * (end - start))
    return LinearizedSample(tokens, node_of, tree.prompt_len)


def reference_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """``build_training_mask`` with its set-up and checks in numpy arrays.

    Node ids map to preorder indices through ``np.fromiter``, the checks run
    as vector compares, and the fill takes every node's token bounds from
    one ``np.bincount(...).cumsum()`` and writes one slice per node.  A
    rejected sample goes through the same ``_raise_first_bad``; a negative
    ``prompt_len`` reads as 0.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    ids, last = reference_subtree_last(tree.root, tree.nodes)
    dense = {nid: v for v, nid in enumerate(ids)}
    dense[-1] = -1
    node_of = np.fromiter(
        map(dense.get, sample.node_of, repeat(-2)), dtype=np.int64, count=n
    )
    plen = min(max(sample.prompt_len, 0), n)
    gen = node_of[plen:]
    if (plen and node_of[:plen].min() < -1) or (
        gen.size and (gen[0] < 0 or (gen[1:] < gen[:-1]).any())
    ):
        _raise_first_bad(sample, node_of.tolist(), plen)
    mask = np.tri(n, dtype=np.bool_)
    ends = (plen + np.bincount(gen, minlength=len(last)).cumsum()).tolist()
    for v, (start, end) in enumerate(zip([plen, *ends], ends)):
        mask[ends[last[v]] :, start:end] = False
    return mask


def reference_subtree_last(root: int, nodes: Mapping) -> tuple[list[int], list[int]]:
    """Node ids in preorder and, per node, its subtree's last preorder index.

    A walk of its own from the root by key, which raises ``preorder``'s
    TreeError for an unknown id or a node reached twice, records each
    node's parent index.  A child follows its parent in preorder, so one
    reverse pass then carries every subtree's last index up to its parent.
    Ids are listed by walk position, so nodes that share an id or differ
    from their key keep one entry each.
    """
    ids: list[int] = []
    parent_of: list[int] = []
    seen: set[int] = set()
    stack = [(root, -1)]
    while stack:
        key, p = stack.pop()
        if key in seen:
            raise TreeError(f"node {key} is reached twice")
        seen.add(key)
        try:
            node = nodes[key]
        except KeyError:
            raise TreeError(f"unknown node id {key}") from None
        v = len(ids)
        ids.append(node.id)
        parent_of.append(p)
        for target in (node.next_sibling, node.first_child):
            if target is not None:
                stack.append((target, v))
    last = list(range(len(parent_of)))
    for v in range(len(parent_of) - 1, 0, -1):
        p = parent_of[v]
        last[p] = max(last[p], last[v])
    return ids, last


def reference_child_positions(tokens: Seq[str]) -> list[int]:
    """The positions of [Child] in ``tokens``, one compare per token."""
    return [i for i, tok in enumerate(tokens) if tok == CHILD]


def reference_loss_mask(sample: LinearizedSample) -> np.ndarray:
    """``build_loss_mask`` as one object-array compare against [Child]."""
    mask = np.asarray(sample.tokens, dtype=object) != CHILD
    mask[: _prompt_len(sample)] = False
    return mask


def reference_tokenize(text: str) -> list[str]:
    """``tokenize`` that always hashes every word to look for a surface."""
    tokens = text.split()
    if CONTROL_TOKENS.isdisjoint(tokens):
        return tokens
    return [f"\\{tok}" if tok in CONTROL_TOKENS else tok for tok in tokens]


def reference_prompt_text(conversation, turn_index: int) -> str:
    """The prompt text of a turn: every turn before it as ``role: text``,
    one a line."""
    return "\n".join(f"{role}: {text}" for role, text in conversation.turns[:turn_index])


def reference_parse_response(text: str) -> tuple[str, ScriptTree | None]:
    """``_parse_response`` that searches the whole text with the ambiguity
    regex, always splits it to look for a surface, cuts paragraphs with
    ``re.split`` and tokenizes every part of a list or paragraphs."""
    if _AMBIGUOUS_RE.search(text):
        return "unstructured", None
    if not CONTROL_TOKENS.isdisjoint(text.split()):
        return "unstructured", None
    content = _reference_list(text)
    if content is not None:
        return "ordered_list", content
    content = _reference_paragraphs(text)
    if content is not None:
        return "paragraph", content
    return "unstructured", None


def _reference_chain(preamble: str, pairs: list[tuple[str, str]], tail: str) -> ScriptTree:
    nodes = chain_nodes(
        [reference_tokenize(head) for head, _ in pairs],
        [reference_tokenize(detail) for _, detail in pairs],
        reference_tokenize(tail),
    )
    if not preamble.strip():
        return ScriptTree(root=0, nodes=nodes, prompt=())
    pre = len(nodes)
    nodes[pre] = ScriptNode(pre, tuple(reference_tokenize(preamble)), 0, pre + 1)
    nodes[pre + 1] = ScriptNode(pre + 1, ())
    return ScriptTree(root=pre, nodes=nodes, prompt=())


def _reference_list(text: str) -> ScriptTree | None:
    lines = text.split("\n")
    matches = [(i, LIST_ITEM_RE.match(line)) for i, line in enumerate(lines)]
    matches = [(i, m) for i, m in matches if m]
    if len(matches) < MIN_LIST_ITEMS:
        return None
    pairs = []
    for k, (i, m) in enumerate(matches):
        stop = matches[k + 1][0] if k + 1 < len(matches) else len(lines)
        extra = " ".join(line.strip() for line in lines[i + 1 : stop] if line.strip())
        detail = f"{m.group(3).strip()} {extra}".strip()
        if len(detail) < MIN_DETAIL_CHARS:
            return None
        pairs.append((f"{m.group(1)}. {m.group(2).strip()}:", detail))
    return _reference_chain("\n".join(lines[: matches[0][0]]), pairs, "")


def _reference_paragraphs(text: str) -> ScriptTree | None:
    pairs, pending = [], []
    for para in (p.strip() for p in re.split(r"\n{2,}", text) if p.strip()):
        m = _SENTENCE_END_RE.search(para)
        rest = para[m.end() :].strip() if m else ""
        if not rest:
            pending.append(para)
            continue
        pairs.append((" ".join(pending + [para[: m.end()].strip()]), rest))
        pending = []
    if not pairs:
        return None
    return _reference_chain("", pairs, " ".join(pending))


@dataclass
class BlockTable:
    """The blocks one sequence holds on a ``RefcountPool``, in order; every
    block but the last is full."""

    blocks: list[int] = field(default_factory=list)
    slots_used_in_last_block: int = 0


class RefcountPool:
    """The block pool as per-block refcounts, shadowing a decode's events.

    Each group's tables sit in a dict by sequence id that the caller keeps
    (several groups can share one pool) and that the pool feeds from a
    step's events: an append, a fork with its child's [Child], and the
    release at an [EOS].  A fork shares every full block of the parent by
    reference and copies its partial last block into a fresh one; a release
    drops one reference per block of the table and frees a block at its
    last.  Block ids go out in allocation order and are never reused.  An
    append into a block that another table also holds raises
    ``ProtocolError``.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        self.block_size = block_size
        self.refcount: dict[int, int] = {}
        self.used_slots = 0
        self.peak_used = 0
        self.allocations = 0

    @property
    def used_blocks(self) -> int:
        return len(self.refcount)

    def _alloc(self) -> int:
        block = self.allocations
        self.allocations += 1
        self.refcount[block] = 1
        self.peak_used = max(self.peak_used, len(self.refcount))
        return block

    def append_slot(self, table: BlockTable) -> None:
        if not table.blocks or table.slots_used_in_last_block == self.block_size:
            table.blocks.append(self._alloc())
            table.slots_used_in_last_block = 0
        else:
            last = table.blocks[-1]
            if self.refcount[last] != 1:
                raise ProtocolError(
                    f"append into shared block {last} (refcount {self.refcount[last]})"
                )
        table.slots_used_in_last_block += 1
        self.used_slots += 1

    def fork_table(self, parent: BlockTable) -> BlockTable:
        """The child's table, before its [Child]."""
        child = BlockTable()
        if not parent.blocks:
            return child
        partial = parent.slots_used_in_last_block < self.block_size
        child.blocks = list(parent.blocks[:-1] if partial else parent.blocks)
        for block in child.blocks:
            self.refcount[block] += 1
        if partial:
            child.blocks.append(self._alloc())
            self.used_slots += parent.slots_used_in_last_block
        child.slots_used_in_last_block = parent.slots_used_in_last_block
        return child

    def release_sequence(self, table: BlockTable) -> int:
        freed = 0
        last = len(table.blocks) - 1
        for i, block in enumerate(table.blocks):
            self.refcount[block] -= 1
            if not self.refcount[block]:
                del self.refcount[block]
                self.used_slots -= table.slots_used_in_last_block if i == last else self.block_size
                freed += 1
        return freed

    def usage_snapshot(self) -> tuple[int, int, int]:
        return len(self.refcount), self.used_slots, self.peak_used

    def start(self, prompt_len: int) -> dict[int, BlockTable]:
        """A new group's tables: the prompt's, filled, as sequence 0's."""
        table = BlockTable()
        for _ in range(prompt_len):
            self.append_slot(table)
        return {0: table}

    def replay(
        self,
        tables: dict[int, BlockTable],
        sampled: Seq[tuple[int, str]],
        forks: Seq[tuple[int, int]] = (),
    ) -> int:
        """Feed one step's events in the order the step made them, each
        thread's fork and its child's [Child] before the thread's own
        append, and an [EOS] append's release; return the blocks freed.  A
        cut is a step that samples [EOS] for every live thread."""
        children = dict(forks)
        freed = 0
        for sid, token in sampled:
            if sid in children:
                child = tables[children[sid]] = self.fork_table(tables[sid])
                self.append_slot(child)
            self.append_slot(tables[sid])
            if token == EOS:
                freed += self.release_sequence(tables.pop(sid))
        return freed


def cut_events(tables: Mapping[int, BlockTable]) -> list[tuple[int, str]]:
    """The events of a cut: an [EOS] for every live thread, in id order."""
    return [(sid, EOS) for sid in sorted(tables)]


_CONTENT, _AFTER_FORK, _DONE = 0, 1, 2


class ReferenceReplayModel:
    """``script.ReplayModel`` as a walk over the script's nodes.

    Plain tokens advance within the current node, a [Fork] not followed by
    [Child] moves to the next sibling, and [Fork] [Child] descends into the
    first child.  ``state`` is ``[checked, node, k, phase]``; the contract
    is otherwise the replay model's.
    """

    def __init__(self, script: ScriptTree):
        self.script = script

    def next_token(self, context: Seq[str], state: list) -> str:
        script = self.script
        n = len(context)
        if not state or n < state[0]:
            plen = len(script.prompt)
            if tuple(context[:plen]) != script.prompt:
                raise ScriptMismatch("context does not start with the script prompt")
            i, node, k, phase = plen, script.nodes[script.root], 0, _CONTENT
        else:
            i, node, k, phase = state
        while i < n:
            tok = context[i]
            if phase == _AFTER_FORK:
                if tok == CHILD:
                    node = script.nodes[node.first_child]
                    k = 0
                    phase = _CONTENT
                    i += 1
                    continue
                node = script.nodes[node.next_sibling]
                k = 0
                phase = _CONTENT
                continue  # reprocess tok as sibling content
            if phase == _DONE:
                raise ScriptMismatch(f"token {tok!r} after {EOS} at position {i}")
            if k < len(node.tokens):
                if tok != node.tokens[k]:
                    raise ScriptMismatch(
                        f"position {i}: expected {node.tokens[k]!r}, saw {tok!r}"
                    )
                k += 1
            elif node.first_child is not None:
                if tok != FORK:
                    raise ScriptMismatch(f"position {i}: expected {FORK}, saw {tok!r}")
                phase = _AFTER_FORK
            else:
                if tok != EOS:
                    raise ScriptMismatch(f"position {i}: expected {EOS}, saw {tok!r}")
                phase = _DONE
            i += 1
        if phase == _DONE:
            raise ScriptMismatch("next_token called on a finished context")
        state[:] = i, node, k, phase

        if phase == _AFTER_FORK:
            node = script.nodes[node.next_sibling]
            k = 0
        if k < len(node.tokens):
            return node.tokens[k]
        if node.first_child is not None:
            return FORK
        return EOS


def reference_linear(script: ScriptTree) -> ReferenceReplayModel:
    """The node walker over the flattened script as one node."""
    flat = ScriptNode(0, tuple(flatten_script(script)))
    return ReferenceReplayModel(ScriptTree(root=0, nodes={0: flat}, prompt=script.prompt))


class SliceStoreReplayModel(ReplayModel):
    """``ReplayModel`` with its call as first written: it computes the
    layout's end on every call, tests ``pos`` against it for a finished
    thread, and stores the state by slice.  The one-path call must give the
    same answer, the same message and the same state left after the call."""

    def next_token(self, context: Seq[str], state: list) -> str:
        layout = self.layout
        end = len(layout) - 1
        n = len(context)
        if not state or n < state[0]:
            prompt = self.script.prompt
            if tuple(context[: len(prompt)]) != prompt:
                raise ScriptMismatch("context does not start with the script prompt")
            i = pos = len(prompt)
        else:
            i, pos = state
        while i < n:
            tok = context[i]
            want = layout[pos]
            if tok == want:
                pos = end if tok == EOS else pos + 1
                i += 1
            elif want == CHILD:  # no [Child] after the [Fork]: on to the sibling
                pos = self.sibling_after[pos - 1]
            elif pos == end:
                raise ScriptMismatch(f"token {tok!r} after {EOS} at position {i}")
            else:
                raise ScriptMismatch(f"position {i}: expected {want!r}, saw {tok!r}")
        if pos == end:
            raise ScriptMismatch("next_token called on a finished context")
        state[:] = n, pos
        tok = layout[pos]
        return layout[self.sibling_after[pos - 1]] if tok == CHILD else tok


class SliceStoreLinearModel(LinearModel):
    """``LinearModel`` with the call of ``SliceStoreReplayModel``."""

    next_token = SliceStoreReplayModel.next_token


def script_to_json(script: ScriptTree) -> str:
    """The script as JSON, nodes in id order: the inverse of
    ``script_from_json``.  Where that accepts the text, it reads back a
    script equal to this one, whose JSON is the same text."""
    payload = {
        "prompt": list(script.prompt),
        "root": script.root,
        "category": script.category,
        "nodes": [
            {
                "id": node.id,
                "tokens": list(node.tokens),
                "first_child": node.first_child,
                "next_sibling": node.next_sibling,
            }
            for node in sorted(script.nodes.values(), key=lambda n: n.id)
        ],
    }
    return json.dumps(payload)


def recorded_step(group: SequenceGroup, model: LanguageModel, rec: StepRecord) -> None:
    """The per-token reference step that ``engine.apar_step`` must match.

    It advances each thread through ``SequenceGroup.append_token``, so every
    token reserves its block slot through ``append_slot`` and counts its
    logical slot one at a time.  It fills ``rec`` as the step runs: the
    sampled tokens and the forks in the order the step makes them, and the
    attended sum; its pool figures are left as they are, for a
    ``RefcountPool`` fed with ``rec``'s events to fill.
    """
    live = list(group.live.values())
    if not live:
        raise ProtocolError("all sequences of the group have finished")
    for seq in live:
        tokens = seq.tokens
        token = model.next_token(tokens, seq.model_state)
        rec.attended_sum += len(tokens)
        if tokens[-1] == FORK:
            rec.forks.append((seq.id, group.fork_sequence(seq.id)))
        group.append_token(seq.id, token)
        rec.sampled.append((seq.id, token))


@dataclass
class ReferenceTrace:
    """A decode trace whose records were filled as the steps ran."""

    mode: str
    prompt_len: int
    records: list[StepRecord] = field(default_factory=list)
    truncated: bool = False
    content_tokens: int = 0
    sequences: dict[int, list[str]] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        header = {
            "mode": self.mode,
            "prompt_len": self.prompt_len,
            "steps": self.steps,
            "truncated": self.truncated,
            "content_tokens": self.content_tokens,
        }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(rec.to_dict()) for rec in self.records)
        return "\n".join(lines) + "\n"


def reference_decode(
    mode: str,
    prompt: Seq[str],
    model: LanguageModel,
    max_steps: int,
    max_seq_len: int,
    block_size: int,
) -> ReferenceTrace:
    """A decode that fills a ``StepRecord`` during every step: the reference
    that ``DecodeTrace.records``, derived after the run, must match.  Its
    physical figures are a ``RefcountPool``'s, fed with each step's events."""
    group = new_group(prompt, KvBlockPool(block_size=block_size))
    shadow = RefcountPool(block_size=block_size)
    tables = shadow.start(len(prompt))
    trace = ReferenceTrace(mode=mode, prompt_len=len(prompt))
    steps = 0
    while group.live:
        if steps >= max_steps or len(prompt) + steps >= max_seq_len:
            for seq_id in list(group.live):
                group.append_token(seq_id, EOS)
            shadow.replay(tables, cut_events(tables))
            trace.truncated = True
            break
        steps += 1
        rec = StepRecord(step=steps)
        recorded_step(group, model, rec)
        rec.blocks_freed = shadow.replay(tables, rec.sampled, rec.forks)
        rec.physical_blocks, rec.physical_slots, _ = shadow.usage_snapshot()
        rec.logical_slots = group.logical_slots
        rec.logical_peak = group.logical_peak
        trace.records.append(rec)
    assert not tables, "a thread's shadow table outlived it"
    trace.sequences = group.sequences_map()
    trace.content_tokens = len(restore(group.tree, trace.sequences))
    return trace


def reference_max_cached(trace: ReferenceTrace) -> int:
    """Peak logical cache slots as the maximum over every step's record."""
    return max((rec.logical_peak for rec in trace.records), default=trace.prompt_len)


def tokens_per_second(trace: DecodeTrace, cost: StepCostModel) -> float:
    """Content tokens divided by total step latency under ``cost``."""
    total = 0.0
    for rec in trace.records:
        total += cost.latency(rec.batch_size, rec.attended_sum)
    if total == 0.0:
        return 0.0
    return trace.content_tokens / total


def cached_tokens(table: BlockTable, block_size: int) -> int:
    """Slots a shadow table holds: full blocks plus the filled part of the last."""
    if not table.blocks:
        return 0
    return (len(table.blocks) - 1) * block_size + table.slots_used_in_last_block


def bounds_usage(group: SequenceGroup) -> tuple[int, int]:
    """The used blocks and slots of ``group``'s cache by the bounds rule of
    ``apar.blocks``, summed over the nodes on a live thread's path: a node
    starting at slot ``start`` (the root at 0) owns its blocks from
    ``start // bs``, a closed one up to ``end // bs`` and a live one up to
    ``ceil(L / bs)``.  A forked child's first block, its own copy, is the
    first block of its first node.  The paths come from one parent map per
    call, the pointer that reaches each node."""
    bs = group.pool.block_size
    tree = group.tree
    parents = {
        target: node.id
        for node in tree.nodes.values()
        for target in (node.first_child, node.next_sibling)
        if target is not None
    }
    held: set[int] = set()
    for seq in group.live.values():
        nid = seq.current_node
        while nid is not None and nid not in held:
            held.add(nid)
            nid = parents.get(nid)
    blocks = slots = 0
    for nid in held:
        node = tree.nodes[nid]
        first = 0 if nid == tree.root else node.start // bs
        if node.end is None:
            length = len(group.sequences[node.seq].tokens)
            blocks += -(-length // bs) - first
            slots += length - first * bs
        else:
            blocks += node.end // bs - first
            slots += (node.end // bs - first) * bs
    return blocks, slots


def step_block_demand(group: SequenceGroup) -> int:
    """Blocks the group's next step allocates, read from its live threads.

    A fork takes one block, and so does an append to a thread whose last
    block is full.
    """
    block_size = group.pool.block_size
    demand = 0
    for seq in group.live.values():
        if seq.tokens[-1] == FORK:
            demand += 1  # a fork allocates exactly one block either way
        if len(seq.tokens) % block_size == 0:
            demand += 1
    return demand


def check_invariants(group: SequenceGroup) -> None:
    """Every thread sits on a leaf node, and a finished one ends in [EOS]."""
    for seq in group.sequences.values():
        node = group.tree.nodes[seq.current_node]
        if node.first_child is not None or node.next_sibling is not None:
            raise AssertionError(f"current node {node.id} of {seq.id} is not a leaf")
        if seq.id not in group.live and seq.tokens[-1] != EOS:
            raise AssertionError(f"finished sequence {seq.id} lacks {EOS}")


@dataclass
class _LiveGroup:
    request_id: int
    group: SequenceGroup
    tables: dict[int, BlockTable]
    model: LanguageModel
    admit_time: float
    content_generated: int = 0


def reference_simulation(config: SimConfig) -> SimReport:
    """``run_simulation`` with the decode in the scheduler loop.

    Every admission, re-admissions after a preemption included, decodes its
    request again with the per-token reference step, and feeds each step's
    events to one shared ``RefcountPool``, which the samples and the summary
    read.  The pool has no cap: the scheduler keeps it within
    ``effective_blocks``, and every step checks that it did.  A preemption
    frees a group by releasing its live threads' shadow tables.
    """
    pool = RefcountPool(block_size=config.block_size)
    capacity = config.effective_blocks
    bs = config.block_size
    waiting: deque[int] = deque(range(len(config.workload)))
    live: list[_LiveGroup] = []
    clock = 0.0
    next_sample = config.sample_period
    preemptions = 0
    window_content = 0
    window_latencies: list[float] = []
    samples: list[SimSample] = []
    completions: list[tuple[float, float]] = []
    total_content = 0
    completed_content = 0
    make_model = ReplayModel if config.mode == "apar" else as_linear
    models: list[LanguageModel | None] = [None] * len(config.workload)

    def prompt_blocks(script: ScriptTree) -> int:
        return (len(script.prompt) + bs - 1) // bs

    def close_windows() -> None:
        nonlocal next_sample, window_content, window_latencies
        while clock >= next_sample:
            lat = np.array(window_latencies) if window_latencies else np.array([0.0])
            used_blocks, used_slots, _ = pool.usage_snapshot()
            samples.append(
                SimSample(
                    time=next_sample,
                    throughput=window_content / config.sample_period,
                    latency_mean=float(lat.mean()),
                    latency_p25=float(np.percentile(lat, 25)),
                    latency_p75=float(np.percentile(lat, 75)),
                    used_slots=used_slots,
                    used_blocks=used_blocks,
                    live_groups=len(live),
                    waiting=len(waiting),
                )
            )
            window_content = 0
            window_latencies = []
            next_sample += config.sample_period

    admission_open = True
    while waiting or live:
        while waiting and len(live) < config.concurrency_limit and admission_open:
            script = config.workload[waiting[0]]
            if capacity - pool.usage_snapshot()[0] < prompt_blocks(script) + 1:
                break
            req_id = waiting.popleft()
            group = new_group(list(script.prompt), KvBlockPool(block_size=bs))
            tables = pool.start(len(script.prompt))
            clock += config.cost.t_fixed + config.cost.c_token * len(script.prompt)
            model = models[req_id]
            if model is None:
                model = models[req_id] = make_model(script)
            live.append(_LiveGroup(req_id, group, tables, model, admit_time=clock))
            close_windows()

        if not live:
            script = config.workload[waiting[0]]
            raise SimulationError(
                f"request {waiting[0]} needs {prompt_blocks(script) + 1} blocks"
                f" but the pool holds {capacity}"
            )

        demand = sum(step_block_demand(entry.group) for entry in live)
        while capacity - pool.usage_snapshot()[0] < demand:
            if len(live) == 1:
                raise SimulationError(
                    f"request {live[0].request_id} cannot fit in"
                    f" {capacity} blocks even alone"
                )
            victim = live.pop()
            demand -= step_block_demand(victim.group)
            for table in victim.tables.values():
                pool.release_sequence(table)
            waiting.append(victim.request_id)
            preemptions += 1
            admission_open = False

        step_batch = step_attended = finished = 0
        for entry in live:
            rec = StepRecord(step=0)
            recorded_step(entry.group, entry.model, rec)
            pool.replay(entry.tables, rec.sampled, rec.forks)
            content = sum(tok not in CONTROL_TOKENS for _, tok in rec.sampled)
            step_batch += rec.batch_size
            step_attended += rec.attended_sum
            entry.content_generated += content
            window_content += content
            total_content += content
            if not entry.group.live:
                finished += 1
        clock += config.cost.latency(step_batch, step_attended)
        # The peak covers the step's blocks before its [EOS] frees any.
        assert pool.peak_used <= capacity, (
            f"a step took the pool to {pool.peak_used} of {capacity} blocks"
        )

        if finished:
            still_live: list[_LiveGroup] = []
            for entry in live:
                if entry.group.live:
                    still_live.append(entry)
                    continue
                models[entry.request_id] = None
                completed_content += entry.content_generated
                elapsed = clock - entry.admit_time
                per_token = elapsed / max(entry.content_generated, 1)
                window_latencies.append(per_token)
                completions.append((clock, per_token))
            admission_open = True
            live = still_live
        close_windows()

    workload_content = sum(
        len(node.tokens) for s in config.workload for node in s.nodes.values()
    )
    used = pool.usage_snapshot()[0]
    if (
        used
        or len(completions) != len(config.workload)
        or completed_content != workload_content
    ):
        raise SimulationInvariantError(
            f"run ended with {used} blocks still held,"
            f" {len(completions)} of {len(config.workload)} requests completed and"
            f" {completed_content} content tokens completed of the"
            f" workload's {workload_content}"
        )
    clock = max(clock, next_sample)
    close_windows()

    keep = samples[int(np.ceil(len(samples) * config.warmup_discard_fraction)):]
    trimmed = list(keep)
    while trimmed and trimmed[-1].waiting == 0 and trimmed[-1].live_groups == 0:
        trimmed.pop()
    if not trimmed:
        trimmed = keep if keep else samples
    kept_content = sum(s.throughput for s in trimmed) * config.sample_period
    kept_time = len(trimmed) * config.sample_period
    warmup_time = trimmed[0].time - config.sample_period
    kept_lats = [lat for t, lat in completions if t > warmup_time]
    if not kept_lats:
        kept_lats = [lat for _, lat in completions]
    lats = np.array(kept_lats)
    kept_tputs = [s.throughput for s in trimmed]
    summary = {
        "mode": config.mode,
        "cache_budget_fraction": config.cache_budget_fraction,
        "effective_blocks": config.effective_blocks,
        "throughput": kept_content / kept_time,
        "steady_throughput": float(np.median(kept_tputs)),
        "latency_mean": float(lats.mean()),
        "latency_p25": float(np.percentile(lats, 25)),
        "latency_p75": float(np.percentile(lats, 75)),
        "completed": len(completions),
        "preemptions": preemptions,
        "content_tokens": total_content,
        "completed_content": completed_content,
        "peak_blocks": pool.peak_used,
        "simulated_time": clock,
        "samples_kept": len(trimmed),
        "samples_total": len(samples),
    }
    return SimReport(
        mode=config.mode,
        cache_budget_fraction=config.cache_budget_fraction,
        samples=samples,
        summary=summary,
    )
