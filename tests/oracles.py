"""Reference implementations the tests check the program against.

The program calls none of these: each one states a figure or a walk a
second way, so a test can compare it with what the program produced.
"""

from __future__ import annotations

from typing import Mapping, Sequence as Seq

from apar.attention import LinearizedSample
from apar.blocks import BlockTable
from apar.engine import DecodeTrace
from apar.runtime import SequenceGroup
from apar.sim import StepCostModel
from apar.tokens import EOS
from apar.tree import ParagraphTree, preorder


def linearize_group(
    tree: ParagraphTree, sequences: Mapping[int, Seq[str]]
) -> LinearizedSample:
    """Linearize a decoded group; control tokens are already in the slices."""
    root_seq = sequences[tree.nodes[tree.root].seq]
    tokens: list[str] = list(root_seq[: tree.prompt_len])
    node_of: list[int] = [-1] * tree.prompt_len
    for node, _ in preorder(tree.root, tree.nodes):
        seq = sequences[node.seq]
        start, end = node.slice_bounds(len(seq))
        tokens.extend(seq[start:end])
        node_of.extend([node.id] * (end - start))
    return LinearizedSample(tokens, node_of, tree.prompt_len)


def tokens_per_second(trace: DecodeTrace, cost: StepCostModel) -> float:
    """Content tokens divided by total step latency under ``cost``."""
    total = 0.0
    for rec in trace.records:
        total += cost.latency(rec.batch_size, rec.attended_sum)
    if total == 0.0:
        return 0.0
    return trace.content_tokens / total


def cached_tokens(table: BlockTable, block_size: int) -> int:
    """Slots a block table holds: full blocks plus the filled part of the last."""
    if not table.blocks:
        return 0
    return (len(table.blocks) - 1) * block_size + table.slots_used_in_last_block


def check_invariants(group: SequenceGroup) -> None:
    """Every thread sits on a leaf node, and a finished one ends in [EOS]."""
    for seq in group.sequences.values():
        node = group.tree.nodes[seq.current_node]
        if node.first_child is not None or node.next_sibling is not None:
            raise AssertionError(f"current node {node.id} of {seq.id} is not a leaf")
        if seq.finished and seq.tokens[-1] != EOS:
            raise AssertionError(f"finished sequence {seq.id} lacks {EOS}")
