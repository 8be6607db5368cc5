"""Linearized training samples, their attention masks and loss masks.

A sample is its script's training layout, built inside the one layout walk
(``script.lay_out_nodes``) together with node_of and the tree, so the
training mask of a token equals exactly what the token could see at decode
time, and a node's subtree is one stretch of positions: a mask needs each
subtree's last node, not an ancestor relation.

The walk.  ``build_training_mask`` walks the tree it is given once, from
the root by key, whatever order its nodes are stored in.  The walk gives
the preorder, the subtree ends and the run of ids node_of should hold; a
node_of equal to that run takes the walk's indices, any other is mapped
and checked, and the two agree wherever the run matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._kernels import build_mask_array
from .errors import TreeError
from .script import ScriptTree, _refuse_unreached, lay_out_nodes
from .tokens import CHILD
from .tree import ParagraphNode, ParagraphTree, subtree_last

__all__ = [
    "LinearizedSample",
    "linearize_script",
    "build_training_mask",
    "build_loss_mask",
]


@dataclass
class LinearizedSample:
    tokens: list[str]
    node_of: list[int]  # node id per token; -1 for prompt positions
    prompt_len: int


def linearize_script(script: ScriptTree) -> tuple[LinearizedSample, ParagraphTree]:
    """Linearize a content script into a training sample plus an aligned tree.

    The sample is the script's layout: its tokens, node_of and the tree's
    nodes are built as ``lay_out_nodes`` lays each node out.  The returned
    tree's nodes slice into that stream itself (sequence id 0), which keeps
    mask construction and restore checks on a single coordinate system.
    """
    tokens = list(script.prompt)
    plen = len(tokens)
    node_of: list[int] = [-1] * plen
    tree = ParagraphTree(root=script.root, prompt_len=plen)
    nodes = tree.nodes
    for node, start in lay_out_nodes(script, tokens):
        nid, end = node.id, len(tokens)
        node_of += [nid] * (end - start)
        # Positional fields: with keywords this call takes twice as long.
        nodes[nid] = ParagraphNode(nid, 0, start, end, node.first_child, node.next_sibling)
    if len(nodes) < len(script.nodes):
        _refuse_unreached(script)
    return LinearizedSample(tokens, node_of, plen), tree


def build_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """Boolean (n, n) mask: row = query token, column = key token.

    A token sees the prompt, every token of its strict ancestors, and its
    own node causally.  Generated positions must follow ``preorder``
    (``_raise_first_bad``), and a negative ``prompt_len`` raises TreeError
    (one above n makes every position prompt).

    One walk of ``tree`` from the root by key, raising ``preorder``'s
    TreeError where it would, gives the kernel the preorder and each
    subtree's end.  It also lays out ``runs``, the ids node_of should hold:
    -1 over the tree's prompt, then each node's id over its bounds, while
    those run on from ``pos`` to n and each id is its node's key (so
    distinct) and not -1.  A node_of equal to ``runs``, under a prompt_len
    no shorter than the tree's, has the walk's indices; any other is mapped.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    plen = min(_prompt_len(sample), n)
    nodes, pos = tree.nodes, tree.prompt_len
    tiled = 0 <= pos <= n
    runs = [-1] * pos if tiled else []
    index = runs.copy()
    order: list[ParagraphNode] = []
    linked: list[int] = []
    seen: set[int] = set()
    due = [tree.root]
    while due:
        nid = due.pop()
        if nid in seen:
            raise TreeError(f"node {nid} is reached twice")
        seen.add(nid)
        try:
            node = nodes[nid]
        except KeyError:
            raise TreeError(f"unknown node id {nid}") from None
        v = len(order)
        order.append(node)
        child, sibling = node.first_child, node.next_sibling
        if child is not None or sibling is not None:
            linked.append(v)
            if sibling is not None:
                due.append(sibling)
            if child is not None:
                due.append(child)
        end = node.end
        if tiled and end is not None and nid == node.id != -1 and pos == node.start <= end <= n:
            runs += [nid] * (end - pos)
            index += [v] * (end - pos)
            pos = end
        else:
            tiled = False
    if not tiled or runs != sample.node_of or plen < tree.prompt_len:
        dense = {node.id: v for v, node in enumerate(order)}
        dense[-1] = -1  # prompt positions; unknown ids map to -2
        index = list(map(dense.get, sample.node_of, repeat(-2)))
        _raise_first_bad(sample, index, plen)
    return build_mask_array(index, subtree_last(order, linked), plen)


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
