"""Decode loops: the forking parallel step and the sequential baseline.

One step advances every unfinished sequence of a group by exactly one token.
If a sequence's context ends with [Fork], the step first forks it; the child
receives the injected [Child] immediately but samples its first token on the
following step (sequences created during a step are not visited in it).
That makes the step count equal the longest thread's generated length.
A thread's generated length counts its injected [Child], so each fork
costs its child one step: the Fig. 3 toy takes 7 steps and the 5-item list
script 71. Pinned by test_criterion_04a_fig3_toy_schedule and
test_criterion_04b_big_tree_step_speedup (tests/test_acceptance.py),
TestBigTree in tests/test_engine.py and
test_big_tree_constant_steps in tests/test_metrics.py.

apar_decode and ar_decode run one loop; ar is that loop over a model that
never emits [Fork].  The threads move in lockstep: before each step, every
unfinished thread holds the prompt plus one token per step run, since a
step appends one token to each and a child forked in it starts at its
parent's length after it.  So one comparison decides a cut: once max_steps
steps have run, or the prompt plus the steps run reach max_seq_len tokens,
the loop ends every unfinished thread with an appended [EOS] and sets
truncated.  Otherwise it stops once every thread has finished.  A prompt
of max_seq_len tokens or more thus decodes in 0 steps with an empty output.

A model answers next_token(context, state), where state is the thread's own
model_state list: whatever the model keeps per thread lives and dies with
the thread, so a cut does not have to tell the model.

apar_step returns counts, (batch, attended, content), and builds no record
of its own: it fills a StepRecord only when given one, and only the decode
loop gives one, for its trace.

Every pool a step runs on has no cap: a standalone decode's, and the
private one the simulator profiles a request on.  So a fork cannot run
out of blocks; the simulator bounds its shared pool by reserving each
step's blocks before the step runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Protocol, Sequence as Seq

from .blocks import DEFAULT_BLOCK_SIZE, KvBlockPool
from .errors import ProtocolError
from .runtime import SequenceGroup, new_group
from .tokens import CONTROL_TOKENS, EOS, FORK
from .tree import ParagraphTree, restore

DEFAULT_MAX_STEPS = 4096
DEFAULT_MAX_SEQ_LEN = 2048

__all__ = [
    "LanguageModel",
    "StepRecord",
    "DecodeTrace",
    "DecodeResult",
    "apar_step",
    "apar_decode",
    "ar_decode",
]


class LanguageModel(Protocol):
    def next_token(self, context: Seq[str], state: list) -> str:
        """The token after ``context``; ``state`` is the thread's, empty until
        the model first answers that thread."""


@dataclass
class StepRecord:
    """What one step observed; the counts its lists already hold are derived."""

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
    mode: str
    prompt_len: int
    records: list[StepRecord] = field(default_factory=list)
    truncated: bool = False
    content_tokens: int = 0

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


@dataclass
class DecodeResult:
    output: list[str]
    tree: ParagraphTree
    trace: DecodeTrace
    group: SequenceGroup

    def sequences_map(self) -> dict[int, list[str]]:
        return self.group.sequences_map()


def apar_step(
    group: SequenceGroup, model: LanguageModel, rec: StepRecord | None = None
) -> tuple[int, int, int]:
    """Advance every unfinished sequence by one token; fork where due.

    Returns ``(batch, attended, content)``: the sequences stepped, the
    context tokens they attended, and the sampled tokens that are not
    control tokens.  ``rec``, when given, also receives the sampled tokens,
    the forks, the blocks freed and the attended sum; its pool figures are
    left as they are.
    """
    live = list(group.live.values())
    if not live:
        raise ProtocolError("all sequences of the group have finished")
    attended = content = 0
    for seq in live:
        tokens = seq.tokens
        token = model.next_token(tokens, seq.model_state)
        attended += len(tokens)
        if tokens[-1] == FORK:
            child = group.fork_sequence(seq.id)
            if rec is not None:
                rec.forks.append((seq.id, child))
        freed = group.append_token(seq.id, token)
        if token not in CONTROL_TOKENS:
            content += 1
        if rec is not None:
            rec.sampled.append((seq.id, token))
            rec.blocks_freed += freed
    if rec is not None:
        rec.attended_sum += attended
    return len(live), attended, content


def _decode(
    mode: str,
    prompt: Seq[str],
    model: LanguageModel,
    max_steps: int,
    max_seq_len: int,
    block_size: int,
) -> DecodeResult:
    pool = KvBlockPool(block_size=block_size)
    group = new_group(prompt, pool)
    trace = DecodeTrace(mode=mode, prompt_len=len(group.prompt))
    steps = 0
    while group.live:
        if steps >= max_steps or len(group.prompt) + steps >= max_seq_len:
            for seq_id in list(group.live):
                group.append_token(seq_id, EOS)
            trace.truncated = True
            break
        steps += 1
        rec = StepRecord(step=steps)
        apar_step(group, model, rec)
        rec.physical_blocks, rec.physical_slots, _ = pool.usage_snapshot()
        rec.logical_slots = group.logical_slots
        # Running maximum: an [EOS] slot counts before its thread releases.
        rec.logical_peak = group.logical_peak
        trace.records.append(rec)
    output = restore(group.tree, group.sequences_map(), strip_control=True)
    trace.content_tokens = len(output)
    return DecodeResult(output=output, tree=group.tree, trace=trace, group=group)


def apar_decode(
    prompt: Seq[str],
    model: LanguageModel,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> DecodeResult:
    """Run the forking decode loop until every thread has finished."""
    return _decode("apar", prompt, model, max_steps, max_seq_len, block_size)


def ar_decode(
    prompt: Seq[str],
    model: LanguageModel,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> DecodeResult:
    """Sequential baseline: the same loop over a model that never forks."""
    return _decode("ar", prompt, model, max_steps, max_seq_len, block_size)
