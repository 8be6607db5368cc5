"""Linearized training samples, their attention masks and loss masks.

A sample is its script's training layout (``script.lay_out``), so the
training mask of a token equals exactly what the token could see at decode
time, and a node's subtree is one stretch of positions: a mask needs each
subtree's last node, not an ancestor relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise, repeat

import numpy as np

from ._kernels import build_mask_array
from .errors import TreeError
from .script import ScriptTree, lay_out
from .tokens import CHILD
from .tree import ParagraphNode, ParagraphTree, preorder

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

    The sample is the script's ``lay_out``.  The returned tree's nodes slice
    into that stream itself (sequence id 0), which keeps mask construction
    and restore checks on a single coordinate system.
    """
    tokens, starts = lay_out(script)
    plen = len(script.prompt)
    node_of: list[int] = [-1] * plen
    tree = ParagraphTree(root=script.root, prompt_len=plen)
    for nid, (start, end) in zip(starts, pairwise([*starts.values(), len(tokens)])):
        node = script.nodes[nid]
        node_of.extend([nid] * (end - start))
        # Positional fields: with keywords this call takes twice as long.
        tree.nodes[nid] = ParagraphNode(
            nid, 0, start, end, node.first_child, node.next_sibling
        )
    return LinearizedSample(tokens, node_of, plen), tree


def build_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """Boolean (n, n) mask: row = query token, column = key token.

    A token sees the prompt, every token of its strict ancestors, and its
    own node causally.  Generated positions must follow ``preorder``, as
    ``linearize_script`` lays them out; a position whose node comes before
    the previous position's node raises TreeError, and so does a negative
    ``prompt_len`` (one above n makes every position prompt).  The checks
    run on plain lists, and the kernel takes each node's bounds from them.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    dense: dict[int, int] = {}
    parent_of: list[int] = []
    for node, parent in preorder(tree.root, tree.nodes):
        parent_of.append(dense[parent] if parent is not None else -1)
        dense[node.id] = len(dense)
    # A child follows its parent in preorder: one reverse pass carries last up.
    last = list(range(len(parent_of)))
    for v in range(len(parent_of) - 1, 0, -1):
        p = parent_of[v]
        last[p] = max(last[p], last[v])
    dense[-1] = -1  # prompt positions; unknown ids map to -2
    node_of = list(map(dense.get, sample.node_of, repeat(-2)))
    plen = min(_prompt_len(sample), n)
    gen = node_of[plen:]
    if (plen and min(node_of[:plen]) < -1) or (
        gen and (gen[0] < 0 or gen != sorted(gen))
    ):
        _raise_first_bad(sample, node_of, plen)
    return build_mask_array(node_of, last, plen)


def _raise_first_bad(sample: LinearizedSample, node_of: list[int], plen: int) -> None:
    """Raise TreeError for the first position build_training_mask rejects."""
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
    TreeError.
    """
    tokens = sample.tokens
    mask = np.ones(len(tokens), dtype=np.bool_)
    mask[: _prompt_len(sample)] = False
    i = -1
    for _ in range(tokens.count(CHILD)):
        i = tokens.index(CHILD, i + 1)
        mask[i] = False
    return mask
