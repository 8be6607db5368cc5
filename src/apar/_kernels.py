"""Mask-construction kernel: the package's one O(n^2) fill, in numpy."""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np


def build_mask_array(node_of: Sequence[int], last: list[int], prompt_len: int) -> np.ndarray:
    """Preorder-subtree mask fill.

    node_of[i] is the dense preorder index of token i's node.  From
    prompt_len (at least 0) on the indices never decrease, so each node's
    tokens form one block and node v's subtree, nodes v to last[v], one
    stretch of rows.  Earlier positions are prompt, seen by every later one.
    A generated token sees an earlier one exactly when its node is in the
    earlier token's node's subtree.

    The fill starts from the causal lower triangle and, per node, clears the
    node's columns in the rows past its subtree: one (n, n) allocation, and
    one slice write per node that has tokens and whose subtree ends before
    n.  Node v's tokens end at prompt_len plus the generated positions whose
    index is at most v, one bisection of the sorted indices.
    """
    n = len(node_of)
    mask = np.tri(n, dtype=np.bool_)
    gen = node_of[prompt_len:]
    ends = [prompt_len + bisect_right(gen, v) for v in range(len(last))]
    start = prompt_len
    for end, v_last in zip(ends, last):
        stop = ends[v_last]
        if start < end and stop < n:
            mask[stop:, start:end] = False
        start = end
    return mask
