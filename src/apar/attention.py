"""Linearized training samples, their attention masks and loss masks.

A sample is its script's training layout (``script.lay_out``), so the
training mask of a token equals exactly what the token could see at decode
time, and a node's subtree is one stretch of positions: a mask needs each
subtree's last node, not an ancestor relation.

The record rule.  The layout's one walk records the node ids in preorder,
each node's first position and each subtree's last node ``last``, and
``linearize_script`` hands the record on as the sample's ``Walk``.
``build_training_mask`` reads it, instead of walking the tree and mapping
node_of token by token, only while node_of equals the recorded runs and the
tree is the one recorded: the root is the first node and its subtree ends
at the last; node v forks exactly when ``last[v] > v``, with first child
v + 1 and next sibling s = ``last[v + 1] + 1``, where ``last[s] ==
last[v]``; other nodes have no pointers.  A walk of that tree finds the
recorded order and ends, so both ways give the same mask or TreeError.  Any
other sample has its tree walked (``tree.preorder_subtrees``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from ._kernels import build_mask_array
from .errors import TreeError
from .script import ScriptTree, lay_out
from .tokens import CHILD
from .tree import ParagraphNode, ParagraphTree, preorder_subtrees

__all__ = [
    "LinearizedSample",
    "Walk",
    "linearize_script",
    "build_training_mask",
    "build_loss_mask",
]


@dataclass
class Walk:
    """What the layout walk recorded: the record of the module docstring.

    ``ids`` are the node ids in preorder.  Node v starts at ``starts[v]``
    and ends where node v + 1 starts, the last one at the sample's end, and
    its subtree is nodes v to ``last[v]``.
    """

    ids: list[int]
    starts: list[int]
    last: list[int]


@dataclass
class LinearizedSample:
    tokens: list[str]
    node_of: list[int]  # node id per token; -1 for prompt positions
    prompt_len: int
    walk: Walk | None = field(default=None, compare=False, repr=False)  # None if hand-built


def linearize_script(script: ScriptTree) -> tuple[LinearizedSample, ParagraphTree]:
    """Linearize a content script into a training sample plus an aligned tree.

    The sample is the script's ``lay_out`` and carries its ``Walk``.  The
    returned tree's nodes slice into that stream itself (sequence id 0),
    which keeps mask construction and restore checks on a single coordinate
    system.
    """
    layout = lay_out(script)
    tokens, starts = layout.tokens, layout.starts
    plen = len(script.prompt)
    node_of: list[int] = [-1] * plen
    tree = ParagraphTree(root=script.root, prompt_len=plen)
    for node, start, end in zip(layout.nodes, starts, [*starts[1:], len(tokens)]):
        nid = node.id
        node_of += [nid] * (end - start)
        # Positional fields: with keywords this call takes twice as long.
        tree.nodes[nid] = ParagraphNode(nid, 0, start, end, node.first_child, node.next_sibling)
    walk = Walk(list(tree.nodes), starts, layout.last)
    return LinearizedSample(tokens, node_of, plen, walk), tree


def build_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """Boolean (n, n) mask: row = query token, column = key token.

    A token sees the prompt, every token of its strict ancestors, and its
    own node causally.  Generated positions must follow ``preorder``
    (``_raise_first_bad``), and a negative ``prompt_len`` raises TreeError
    (one above n makes every position prompt).

    The kernel takes each position's preorder index and each node's subtree
    end, from the sample's ``Walk`` while the record rule of the module
    docstring holds, else from a walk of ``tree``.  On the record only the
    first position past a shortened ``prompt_len`` can break a rule.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    plen = min(_prompt_len(sample), n)
    node_of = _recorded_node_of(sample, tree)
    if node_of is not None:
        last = sample.walk.last
        if plen < sample.walk.starts[0]:
            _raise_first_bad(sample, node_of, plen)
    else:
        nodes, last = preorder_subtrees(tree.root, tree.nodes)
        dense = {node.id: v for v, node in enumerate(nodes)}
        dense[-1] = -1  # prompt positions; unknown ids map to -2
        node_of = list(map(dense.get, sample.node_of, repeat(-2)))
        _raise_first_bad(sample, node_of, plen)
    return build_mask_array(node_of, last, plen)


def _recorded_node_of(sample: LinearizedSample, tree: ParagraphTree) -> list[int] | None:
    """Each position's preorder index, from the sample's ``Walk``, while the
    record rule holds; None if not.  Each node is one pointer compare and one
    list repeat of its run, and node_of one list compare."""
    walk = sample.walk
    if walk is None or tree.root != walk.ids[0] or walk.last[0] != len(walk.ids) - 1:
        return None
    ids, starts, last = walk.ids, walk.starts, walk.last
    nodes = tree.nodes
    runs = [-1] * starts[0]
    node_of = runs.copy()
    for v, nid, start, end in zip(count(), ids, starts, [*starts[1:], len(sample.node_of)]):
        links = (None, None)
        if last[v] > v:  # a fork: first child v + 1, next sibling s, or no tree fits
            s = last[v + 1] + 1
            links = (ids[v + 1], ids[s]) if s <= last[v] and last[s] == last[v] else None
        node = nodes.get(nid)
        if node is None or (node.first_child, node.next_sibling) != links:
            return None
        runs += [nid] * (end - start)
        node_of += [v] * (end - start)
    return node_of if sample.node_of == runs else None


def _raise_first_bad(sample: LinearizedSample, node_of: list[int], plen: int) -> None:
    """Raise TreeError for the first position, if any, that breaks the
    preorder rule: ``node_of`` holds preorder indices (-1 for no node, -2 for
    an unknown id); no position names an unknown node, and from ``plen`` on
    each position has a node whose index is at least the one before."""
    prev = -1
    for i, v in enumerate(node_of):
        if v == -2:
            raise TreeError(f"position {i} maps to unknown node {sample.node_of[i]}")
        if i < plen:
            continue
        if v == -1:
            raise TreeError(f"generated position {i} has no node")
        if v < prev:
            raise TreeError(
                f"position {i} is out of preorder: node {sample.node_of[i]}"
                f" follows node {sample.node_of[i - 1]}"
            )
        prev = v


def _prompt_len(sample: LinearizedSample) -> int:
    """The sample's prompt length; a negative one raises TreeError."""
    if sample.prompt_len < 0:
        raise TreeError(f"prompt_len {sample.prompt_len} is negative")
    return sample.prompt_len


def build_loss_mask(sample: LinearizedSample) -> np.ndarray:
    """True where a position contributes training loss.

    Prompt positions and injected [Child] positions carry no loss; [Fork]
    and [EOS] are trained like content.  A negative ``prompt_len`` raises
    TreeError.  The [Child]s are searched for in the tokens, so the mask
    follows tokens edited after ``linearize_script``.
    """
    tokens = sample.tokens
    mask = np.ones(len(tokens), dtype=np.bool_)
    mask[: _prompt_len(sample)] = False
    i = -1
    for _ in range(tokens.count(CHILD)):
        i = tokens.index(CHILD, i + 1)
        mask[i] = False
    return mask
