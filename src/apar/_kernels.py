"""Mask-construction kernel: the package's one O(n^2) inner loop, in numpy."""

from __future__ import annotations

import numpy as np


def build_mask_array(
    node_of: np.ndarray, ancestor: np.ndarray, prompt_len: int
) -> np.ndarray:
    """Run-block mask fill.

    node_of[i] is the dense node index of token i (-1 for prompt tokens);
    ancestor[a, b] says node b is a strict ancestor of node a.  Token i sees
    token j <= i when j is a prompt position, or when both have a node and
    j's node is i's node or a strict ancestor of it.

    The fill starts from the causal lower triangle, which already holds the
    prompt columns, then splits node_of into maximal runs of one value: for
    each run of rows it clears the generated columns of every run up to it
    whose node the rows may not see.  That is one (n, n) allocation and
    O(runs^2) block writes.
    """
    node_of = np.ascontiguousarray(node_of, dtype=np.int64)
    ancestor = np.ascontiguousarray(ancestor, dtype=np.bool_)
    n = node_of.shape[0]
    mask = np.tri(n, dtype=np.bool_)
    if n == 0:
        return mask
    bounds = [0, *(np.flatnonzero(node_of[1:] != node_of[:-1]) + 1).tolist(), n]
    nodes = node_of[bounds[:-1]].tolist()
    # Rows before prompt_len see only prompt columns and columns before it
    # are never cleared, so both sides of a run start at prompt_len at least.
    runs = [
        (max(start, prompt_len), end, v)
        for start, end, v in zip(bounds, bounds[1:], nodes)
        if end > prompt_len
    ]
    for r, (rs, re, v) in enumerate(runs):
        for ks, ke, kv in runs[: r + 1]:
            if v < 0 or kv < 0 or (kv != v and not ancestor[v, kv]):
                mask[rs:re, ks:ke] = False
    return mask
