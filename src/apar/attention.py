"""Linearized training samples, their attention masks and loss masks.

Linearization layout: a node emits its content, then [Fork] if it has
children; a first_child subtree opens with the injected [Child]; a leaf
closes its thread with [EOS].  Under that layout the training mask of a
token equals exactly what the token could see at decode time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._kernels import build_mask_array
from .errors import TreeError
from .script import ScriptTree
from .tokens import CHILD, EOS, FORK
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

    The returned tree's nodes slice into the linearized stream itself
    (sequence id 0), which keeps mask construction and restore checks on a
    single coordinate system.
    """
    tokens: list[str] = list(script.prompt)
    node_of: list[int] = [-1] * len(script.prompt)
    tree = ParagraphTree(root=script.root, prompt_len=len(script.prompt))

    for node, parent in preorder(script.root, script.nodes):
        start = len(tokens)
        if parent is not None and script.nodes[parent].first_child == node.id:
            tokens.append(CHILD)
        tokens.extend(node.tokens)
        tokens.append(FORK if node.first_child is not None else EOS)
        node_of.extend([node.id] * (len(tokens) - start))
        tree.nodes[node.id] = ParagraphNode(
            id=node.id,
            seq=0,
            start=start,
            end=len(tokens),
            first_child=node.first_child,
            next_sibling=node.next_sibling,
        )
    return LinearizedSample(tokens, node_of, len(script.prompt)), tree


def _ancestor_matrix(tree: ParagraphTree) -> tuple[dict[int, int], np.ndarray]:
    """Dense index map plus strict-ancestor relation over the tree's nodes.

    A node's dense index is its ``preorder`` position.  Preorder yields a
    node after the node pointing at it, so each row is its parent's row
    plus the parent.  Nodes the root does not reach get no index.
    """
    dense: dict[int, int] = {}
    anc = np.zeros((len(tree.nodes), len(tree.nodes)), dtype=np.bool_)
    for node, parent in preorder(tree.root, tree.nodes):
        i = dense[node.id] = len(dense)
        if parent is not None:
            p = dense[parent]
            anc[i] = anc[p]
            anc[i, p] = True
    return dense, anc


def build_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """Boolean (n, n) mask: row = query token, column = key token.

    A token sees the prompt, every token of its strict ancestors, and its
    own node causally.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    dense, anc = _ancestor_matrix(tree)
    dense[-1] = -1  # prompt positions; unknown ids map to -2
    node_of = np.fromiter(
        map(dense.get, sample.node_of, repeat(-2)), dtype=np.int64, count=n
    )
    bad = node_of == -2
    generated = slice(max(sample.prompt_len, 0), None)
    bad[generated] |= node_of[generated] == -1
    bad_at = np.flatnonzero(bad)
    if bad_at.size:
        i = int(bad_at[0])
        if node_of[i] == -1:
            raise TreeError(f"generated position {i} has no node")
        raise TreeError(f"position {i} maps to unknown node {sample.node_of[i]}")
    return build_mask_array(node_of, anc, sample.prompt_len)


def build_loss_mask(sample: LinearizedSample) -> np.ndarray:
    """True where a position contributes training loss.

    Prompt positions and injected [Child] positions carry no loss; [Fork]
    and [EOS] are trained like content.
    """
    mask = np.asarray(sample.tokens, dtype=object) != CHILD
    mask[: sample.prompt_len] = False
    return mask
