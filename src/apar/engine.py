"""Decode loops: the forking parallel step and the sequential baseline.

Fork timing.  One step advances every unfinished sequence of a group by
exactly one token.  If a sequence's context ends with [Fork], the step first
forks it; the child receives the injected [Child] immediately but samples
its first token on the following step (sequences created during a step are
not visited in it).  That makes the step count equal the longest thread's
generated length.  A thread's generated length counts its injected [Child],
so each fork costs its child one step: the Fig. 3 toy takes 7 steps and the
5-item list script 71.  Pinned by test_criterion_04a_fig3_toy_schedule and
test_criterion_04b_big_tree_step_speedup (tests/test_acceptance.py),
TestBigTree in tests/test_engine.py and test_big_tree_constant_steps in
tests/test_metrics.py.

Lockstep.  Before each step, every unfinished thread holds the prompt plus
one token per step run, L tokens in all, since a step appends one token to
each and a child forked in it starts at its parent's length after it;
apar_step raises ProtocolError, before its model call, on a thread that
does not.  So a step attends batch * L tokens, and token k of a thread was
sampled at step k - prompt_len + 1, in ascending id order among that step's
tokens.  A step allocates one block per stepped thread iff
L % block_size == 0, when every thread's last block is full, plus one per
fork (apar.blocks); each thread takes its fresh block through the pool in
id order, so the pool's peak, the run's, stays exact.

The cut.  One comparison on the step count decides it: once max_steps
steps have run, or the prompt plus the steps run reach max_seq_len tokens,
run_steps ends every unfinished thread with an appended [EOS], which no row
counts, and the decode is truncated.  Otherwise it stops once every thread
has finished.  A prompt of max_seq_len tokens or more thus decodes in 0
steps with an empty output.

The lone-thread loop.  apar_decode, ar_decode and the simulator's step
profiles decode through one driver, _decode, which runs one loop,
run_steps; ar is that loop over a model that never emits [Fork].  Steps
with one live thread that does not fork are common: every ar step is one,
and so are many of an apar decode's.  So while one thread is live and its
last token is not [Fork], run_steps steps it in _run_alone until it samples
a control token or the limit is reached.  That loop keeps the pool's and
the group's counters in locals, writes them back at every exit, a raise
included, and appends the rows apar_step would return.  apar_step runs
every other step.

Every pool a step runs on has no cap: a standalone decode's, and the
private one the simulator profiles a request on.  So a fork cannot run
out of blocks; the simulator bounds its shared pool by reserving each
step's blocks before the step runs.  When a step counts its slots is
apar.runtime's rule, and what its row holds is listed above ROW_WIDTH.

The end check.  A finished decode, cut or not, holds no block of its pool
and has a valid tree; one that was not cut also restores exactly the
content its model was to produce.  check_decode checks all three, and
every caller that keeps a decode's result calls it: the simulator's step
profiles, `apar decode` and `apar bench`.  apar_decode and ar_decode do
not, so that timing a decode does not time its check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol, Sequence as Seq

from .blocks import DEFAULT_BLOCK_SIZE, KvBlockPool
from .errors import DecodeInvariantError, ProtocolError
from .runtime import Sequence, SequenceGroup, new_group
from .tokens import CONTROL_TOKENS, EOS, FORK
from .tree import ParagraphTree, restore, validate

DEFAULT_MAX_STEPS = 4096
DEFAULT_MAX_SEQ_LEN = 2048

# Columns of a step row: the threads stepped, the context tokens they
# attended and the sampled tokens that are not control tokens; then, read
# after the step, the pool's used blocks and slots, the blocks it has
# allocated so far and the step's own block peak, and the group's logical
# slots and their running peak, in which an [EOS] slot counts before its
# thread releases.  Blocks fall only at a release, so the step's peak, read
# before each [EOS] release and at the step's end, is exact on any pool.
(
    BATCH, ATTENDED, CONTENT, USED_BLOCKS, USED_SLOTS,
    ALLOCATIONS, PEAK, LOGICAL_SLOTS, LOGICAL_PEAK,
) = range(9)
ROW_WIDTH = LOGICAL_PEAK + 1

__all__ = [
    "LanguageModel",
    "StepRecord",
    "DecodeTrace",
    "DecodeResult",
    "apar_step",
    "run_steps",
    "apar_decode",
    "ar_decode",
    "check_decode",
]


class LanguageModel(Protocol):
    def next_token(self, context: Seq[str], state: list) -> str:
        """The token after ``context``; ``state`` is the thread's, empty until
        the model first answers that thread, or, for a forked child, a
        shallow copy of its parent's state as the parent's call at the
        [Fork] left it.  It lives and dies with the thread, so a cut does
        not have to tell the model."""


@dataclass
class StepRecord:
    """What one step did, as a trace derives it; the counts its lists hold
    are derived too."""

    step: int
    sampled: list[tuple[int, str]] = field(default_factory=list)
    forks: list[tuple[int, int]] = field(default_factory=list)
    blocks_freed: int = 0
    attended_sum: int = 0
    physical_slots: int = 0
    physical_blocks: int = 0
    logical_slots: int = 0
    logical_peak: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.sampled)

    @property
    def slots_appended(self) -> int:
        """One slot per sampled token plus one per injected [Child]."""
        return len(self.sampled) + len(self.forks)

    @property
    def finished(self) -> list[int]:
        return [sid for sid, tok in self.sampled if tok == EOS]

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "sampled": [[sid, tok] for sid, tok in self.sampled],
            "forks": [[p, c] for p, c in self.forks],
            "aborted_forks": [],  # kept so the trace format does not change
            "finished": self.finished,
            "slots_appended": self.slots_appended,
            "blocks_freed": self.blocks_freed,
            "batch_size": self.batch_size,
            "attended_sum": self.attended_sum,
            "physical_slots": self.physical_slots,
            "physical_blocks": self.physical_blocks,
            "logical_slots": self.logical_slots,
            "logical_peak": self.logical_peak,
        }


@dataclass
class DecodeTrace:
    """One decode's step rows, as run_steps returns them, and the group
    they were read from; ``records`` is derived from both when first read."""

    mode: str
    prompt_len: int
    group: SequenceGroup = field(repr=False)
    rows: list[int] = field(repr=False)
    truncated: bool
    content_tokens: int

    @property
    def steps(self) -> int:
        return len(self.rows) // ROW_WIDTH

    @cached_property
    def records(self) -> list[StepRecord]:
        """One record per step, each token placed by the lockstep rule (see
        the module docstring).

        Two tokens have no step: a forked child's injected [Child], which
        follows its first node's start, and the [EOS] a cut appends at
        prompt_len + steps.  A fork runs in the step that samples its
        parent's token at the [Child]'s position; its parent owns the node
        whose first child is the child's first node.  The pool is the
        decode's own, so it has freed no block before the first step, and
        the blocks a step frees are its allocations less its change in used
        blocks.
        """
        p, steps, rows = self.prompt_len, self.steps, self.rows
        sampled: list[list[tuple[int, str]]] = [[] for _ in range(steps)]
        forks: list[list[tuple[int, int]]] = [[] for _ in range(steps)]
        nodes = self.group.tree.nodes
        forked = {}  # child id -> (parent id, where its [Child] sits)
        for node in nodes.values():
            if node.first_child is not None:
                child = nodes[node.first_child]
                forked[child.seq] = (node.seq, child.start)
        end = p + steps  # a cut's [EOS] sits here
        for sid, seq in self.group.sequences.items():
            first = p
            if sid in forked:
                parent, child_at = forked[sid]
                forks[child_at - p].append((parent, sid))
                first = child_at + 1
            tokens = seq.tokens
            for k in range(first, min(len(tokens), end)):
                sampled[k - p].append((sid, tokens[k]))
        records = []
        freed = 0  # blocks freed before the step
        for t in range(steps):
            row = rows[t * ROW_WIDTH : (t + 1) * ROW_WIDTH]
            freed_after = row[ALLOCATIONS] - row[USED_BLOCKS]
            records.append(
                StepRecord(
                    step=t + 1,
                    sampled=sampled[t],
                    forks=forks[t],
                    blocks_freed=freed_after - freed,
                    attended_sum=row[ATTENDED],
                    physical_slots=row[USED_SLOTS],
                    physical_blocks=row[USED_BLOCKS],
                    logical_slots=row[LOGICAL_SLOTS],
                    logical_peak=row[LOGICAL_PEAK],
                )
            )
            freed = freed_after
        return records

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


@dataclass
class DecodeResult:
    output: list[str]
    tree: ParagraphTree
    trace: DecodeTrace
    group: SequenceGroup

    def sequences_map(self) -> dict[int, list[str]]:
        return self.group.sequences_map()


def apar_step(group: SequenceGroup, model: LanguageModel) -> tuple[int, ...]:
    """Advance every unfinished sequence by one token, forking where due;
    return the step's row (see ROW_WIDTH).  Raises ProtocolError when no
    thread is live or one is out of lockstep."""
    live = list(group.live.values())
    if not live:
        raise ProtocolError("all sequences of the group have finished")
    pool = group.pool
    length = len(live[0].tokens)
    fresh = length % pool.block_size == 0  # every thread's last block is full
    counted = controls = peak = 0  # logical appends counted; controls; block peak
    next_token = model.next_token
    try:
        for seq in live:
            tokens = seq.tokens
            if len(tokens) != length:
                raise ProtocolError(
                    f"sequence {seq.id} holds {len(tokens)} tokens but sequence"
                    f" {live[0].id} holds {length}: the threads are out of lockstep"
                )
            token = next_token(tokens, seq.model_state)
            if tokens[-1] == FORK:
                group.fork_sequence(seq.id)
            if fresh:
                pool.take_block()
            tokens.append(token)
            if token in CONTROL_TOKENS:
                controls += 1
                if token == EOS:
                    # Count every append so far, this [EOS] included, before
                    # the release can lower the count.  (A fork's own count
                    # lacks them, so it can only read low.)  Each search starts
                    # past the last one, so a step scans ``live`` at most once.
                    appended = live.index(seq, counted) + 1
                    group.count_appends(appended - counted)
                    counted = appended
                    peak = max(peak, pool.used_blocks)
                    group.finish(seq)
    except BaseException:
        # ``seq`` appended nothing: count the threads before it.
        done = live.index(seq, counted)
        pool.used_slots += done
        group.count_appends(done - counted)
        raise
    batch = len(live)
    used = pool.used_blocks
    pool.used_slots += batch
    # group.count_appends, written out: it runs once per step.
    group.logical_slots += batch - counted
    if group.logical_slots > group.logical_peak:
        group.logical_peak = group.logical_slots
    return (
        batch, batch * length, batch - controls, used, pool.used_slots,
        pool.allocations, max(peak, used), group.logical_slots, group.logical_peak,
    )


def _run_alone(
    group: SequenceGroup,
    model: LanguageModel,
    seq: Sequence,
    rows: list[int],
    steps: int,
    limit: float,
) -> int:
    """The lone-thread loop (see the module docstring) over ``seq``, the
    group's one live thread, whose last token is not [Fork]: append its
    rows to ``rows`` and return the steps run in all, ``steps`` of them
    before the call."""
    pool = group.pool
    block_size = pool.block_size
    tokens, state = seq.tokens, seq.model_state
    next_token, append, extend = model.next_token, tokens.append, rows.extend
    length = len(tokens)
    used, slots, allocations = pool.used_blocks, pool.used_slots, pool.allocations
    logical, logical_peak = group.logical_slots, group.logical_peak
    try:
        while steps < limit:
            token = next_token(tokens, state)
            if length % block_size == 0:
                used += 1
                allocations += 1
            append(token)
            slots += 1
            logical += 1
            if logical > logical_peak:
                logical_peak = logical
            steps += 1
            if token in CONTROL_TOKENS:
                break
            # The step's peak is its used blocks: it frees none.
            extend((1, length, 1, used, slots, allocations, used, logical, logical_peak))
            length += 1
        else:
            return steps
    finally:
        pool.used_blocks, pool.used_slots, pool.allocations = used, slots, allocations
        if used > pool.peak_used:
            pool.peak_used = used
        group.logical_slots, group.logical_peak = logical, logical_peak
    if token == EOS:
        group.finish(seq)
    extend((
        1, length, 0, pool.used_blocks, pool.used_slots, pool.allocations, used,
        group.logical_slots, group.logical_peak,
    ))
    return steps


def run_steps(
    group: SequenceGroup, model: LanguageModel, limit: float = math.inf
) -> tuple[list[int], bool]:
    """Step ``group`` until every thread has finished or ``limit`` steps ran.

    Returns the step rows end to end, ROW_WIDTH integers per step, and
    whether the run was cut (see the module docstring).
    """
    live = group.live
    rows: list[int] = []
    extend = rows.extend
    steps = 0
    while live and steps < limit:
        if len(live) == 1:
            (seq,) = live.values()
            if seq.tokens[-1] != FORK:
                steps = _run_alone(group, model, seq, rows, steps, limit)
                continue
        extend(apar_step(group, model))
        steps += 1
    cut = bool(live)
    for seq_id in list(live):
        group.append_token(seq_id, EOS)
    return rows, cut


def _decode(
    mode: str,
    group: SequenceGroup,
    model: LanguageModel,
    max_steps: float = math.inf,
    max_seq_len: float = math.inf,
) -> DecodeResult:
    """Decode ``group``, fresh from new_group, with ``model``: the one driver
    of apar_decode, ar_decode and the simulator's step profiles."""
    prompt_len = group.tree.prompt_len
    rows, truncated = run_steps(group, model, min(max_steps, max_seq_len - prompt_len))
    output = restore(group.tree, group.sequences_map())
    trace = DecodeTrace(mode, prompt_len, group, rows, truncated, len(output))
    return DecodeResult(output, group.tree, trace, group)


def apar_decode(
    prompt: Seq[str],
    model: LanguageModel,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> DecodeResult:
    """Run the forking decode loop until every thread has finished."""
    group = new_group(prompt, KvBlockPool(block_size=block_size))
    return _decode("apar", group, model, max_steps, max_seq_len)


def ar_decode(
    prompt: Seq[str],
    model: LanguageModel,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> DecodeResult:
    """Sequential baseline: the same loop over a model that never forks."""
    group = new_group(prompt, KvBlockPool(block_size=block_size))
    return _decode("ar", group, model, max_steps, max_seq_len)


def check_decode(result: DecodeResult, expected: list[str], subject: str) -> None:
    """The end check (see the module docstring) of ``result``, which was to
    restore ``expected``; a failure raises DecodeInvariantError, whose
    message names the decode by ``subject``."""
    held = result.group.pool.used_blocks
    if held:
        raise DecodeInvariantError(f"{subject} ended with {held} blocks still held")
    violations = validate(result.tree, result.sequences_map())
    if violations:
        raise DecodeInvariantError(f"{subject} gave an invalid tree: {violations}")
    if not result.trace.truncated and result.output != expected:
        raise DecodeInvariantError(
            f"{subject} restored {len(result.output)} content tokens"
            " that differ from its script's"
        )
