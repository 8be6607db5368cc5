"""Mask-construction kernel: the package's one O(n^2) fill, in numpy."""

from __future__ import annotations

import numpy as np


def build_mask_array(node_of: np.ndarray, last: list[int], prompt_len: int) -> np.ndarray:
    """Preorder-subtree mask fill.

    node_of[i] is the dense preorder index of token i's node.  From
    prompt_len on the indices never decrease, so each node's tokens form one
    block and node v's subtree, nodes v to last[v], one stretch of rows.
    Earlier positions are prompt, seen by every later one.  A generated
    token sees an earlier one exactly when its node is in the earlier
    token's node's subtree.

    The fill starts from the causal lower triangle and, per node, clears the
    node's columns in the rows past its subtree: one (n, n) allocation and
    one slice write per node.
    """
    node_of = np.ascontiguousarray(node_of, dtype=np.int64)
    mask = np.tri(node_of.shape[0], dtype=np.bool_)
    p = max(prompt_len, 0)
    ends = (p + np.bincount(node_of[p:], minlength=len(last)).cumsum()).tolist()
    for v, (start, end) in enumerate(zip([p, *ends], ends)):
        mask[ends[last[v]] :, start:end] = False
    return mask
