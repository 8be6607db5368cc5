"""Sequences, sequence groups and the fork bookkeeping of parallel decoding.

A group starts as one prompt-bearing sequence.  When a sequence's context
ends with [Fork], forking it clones the prefix into a child thread, injects
[Child] there, and rewrites the tree: the old leaf gains a first_child (the
child's content node) and a next_sibling (the parent's continuation node).

The group counts *logical* cache slots: distinct cached tokens, shared
prefixes counted once.  A finishing thread releases the nodes it was the
last live thread under, one run by the block rule of apar.blocks, from the
logical count and the pool alike.  The pool has no cap, so a fork or an
append cannot run out of blocks.

append_token is the one-thread operation: one token, with its block slot
and its logical slot.  A decode step (engine.apar_step, or the lone-thread
loop, engine._run_alone) appends to its threads itself and counts their
slots at once: the pool's used slots at the step's end, and the logical
slots at the step's end and before each [EOS] release, the only event that
lowers the running count, so their running peak is exact.  A model raise
mid-step counts the threads that appended before it.  All of them end a
thread through finish, the one place that releases it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .blocks import KvBlockPool
from .errors import ProtocolError
from .tokens import CHILD, CONTROL_TOKENS, EOS, FORK
from .tree import ParagraphNode, ParagraphTree

__all__ = ["Sequence", "SequenceGroup", "new_group"]


@dataclass(eq=False)  # a thread is itself: list.index finds it by identity
class Sequence:
    id: int
    tokens: list[str]
    current_node: int
    # The model's own per-thread state; the runtime never reads it.  A
    # forked child starts with a shallow copy of its parent's.
    model_state: list = field(default_factory=list)


class SequenceGroup:
    """All decoding threads spawned for one prompt, plus their tree."""

    def __init__(self, prompt: list[str], pool: KvBlockPool):
        self.pool = pool
        self.tree = ParagraphTree(root=0, prompt_len=len(prompt))
        self.tree.nodes[0] = ParagraphNode(id=0, seq=0, start=len(prompt))
        for i in range(len(prompt)):
            pool.append_slot(i)
        first = Sequence(id=0, tokens=list(prompt), current_node=0)
        # Every sequence by id.  It and tree.nodes only grow, so their sizes
        # are the next sequence and node ids.
        self.sequences: dict[int, Sequence] = {0: first}
        # Unfinished sequences by id, in ascending id order; a sequence has
        # finished when it is missing here.
        self.live: dict[int, Sequence] = {0: first}
        # Node id -> the node whose pointer targets it; the root has none.
        self._parents: dict[int, int] = {}
        # Node id -> live holders: the live thread whose current node it is,
        # plus its live first_child and next_sibling.  A node's tokens stay
        # cached while it has a holder.
        self._node_live_refs: dict[int, int] = {0: 1}
        self.logical_slots = len(prompt)
        self.logical_peak = len(prompt)

    # -- queries --

    def sequences_map(self) -> dict[int, list[str]]:
        return {sid: seq.tokens for sid, seq in self.sequences.items()}

    # -- mutation --

    def fork_sequence(self, parent_id: int) -> int:
        """Fork ``parent_id`` after its trailing [Fork] token; return the child id."""
        try:
            parent = self.live[parent_id]
        except KeyError:
            raise self._not_live(parent_id, "fork from") from None
        if not parent.tokens or parent.tokens[-1] != FORK:
            raise ProtocolError(
                f"sequence {parent_id} does not end with {FORK}; cannot fork"
            )

        child_id = len(self.sequences)
        fork_len = len(parent.tokens)
        self.pool.fork_table(fork_len)  # the child's block, with its [Child]
        child = Sequence(
            id=child_id,
            tokens=list(parent.tokens),
            current_node=-1,
            model_state=list(parent.model_state),
        )
        child.tokens.append(CHILD)

        cont_id = len(self.tree.nodes)
        cont = ParagraphNode(id=cont_id, seq=parent.id, start=fork_len)
        detail = ParagraphNode(id=cont_id + 1, seq=child_id, start=fork_len)
        old = self.tree.nodes[parent.current_node]
        old.end = fork_len
        old.next_sibling = cont.id
        old.first_child = detail.id
        self.tree.nodes[cont.id] = cont
        self.tree.nodes[detail.id] = detail
        self._parents[cont.id] = old.id
        self._parents[detail.id] = old.id

        # The old leaf's holder, the parent thread, moves to ``cont``; its
        # two new live children now hold it.
        self._node_live_refs[old.id] += 1
        self._node_live_refs[cont.id] = 1
        self._node_live_refs[detail.id] = 1

        parent.current_node = cont.id
        child.current_node = detail.id
        self.sequences[child_id] = child
        self.live[child_id] = child
        self.count_appends(1)  # the injected [Child]; the prefix is shared
        return child_id

    def append_token(self, seq_id: int, token: str) -> None:
        """Append one sampled token; finish and release on [EOS]."""
        try:
            seq = self.live[seq_id]
        except KeyError:
            raise self._not_live(seq_id, "append to") from None
        self.pool.append_slot(len(seq.tokens))
        seq.tokens.append(token)
        self.count_appends(1)
        if token == EOS:
            self.finish(seq)

    def finish(self, seq: Sequence) -> None:
        """End live ``seq``, whose last token is [EOS] and already counted:
        drop its hold on the tree and its blocks."""
        del self.live[seq.id]
        self.pool.release_sequence(self._release_logical(seq), len(seq.tokens))

    # -- logical accounting --

    def count_appends(self, count: int) -> None:
        """Count ``count`` appended tokens as logical slots; raise the peak."""
        self.logical_slots += count
        if self.logical_slots > self.logical_peak:
            self.logical_peak = self.logical_slots

    def _release_logical(self, seq: Sequence) -> int:
        """Drop the finished thread's hold on its node and free unheld
        ancestors, one run of logical slots; return the run's start."""
        nid: int | None = seq.current_node
        while nid is not None:
            self._node_live_refs[nid] -= 1
            if self._node_live_refs[nid]:
                break
            start = self.tree.nodes[nid].start
            nid = self._parents.get(nid)
        else:  # the walk freed the root
            start = 0
        self.logical_slots -= len(seq.tokens) - start
        return start

    def _not_live(self, seq_id: int, action: str) -> ProtocolError:
        """The error for ``action`` on a sequence that is not live."""
        if seq_id in self.sequences:
            return ProtocolError(f"{action} finished sequence {seq_id}")
        return ProtocolError(f"unknown sequence {seq_id}")


def new_group(prompt: Iterable[str], pool: KvBlockPool) -> SequenceGroup:
    """Start a group holding only the prompt sequence."""
    prompt = list(prompt)
    if not prompt:
        raise ProtocolError("prompt must be non-empty")
    bad = [tok for tok in prompt if tok in CONTROL_TOKENS]
    if bad:
        raise ProtocolError(f"prompt contains reserved control tokens {bad}")
    return SequenceGroup(prompt, pool)
