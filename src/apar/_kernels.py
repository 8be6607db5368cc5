"""Mask-construction kernel: the package's one O(n^2) inner loop, in numpy."""

from __future__ import annotations

import numpy as np


def build_mask_array(
    node_of: np.ndarray, ancestor: np.ndarray, prompt_len: int
) -> np.ndarray:
    """Vectorized mask fill.

    node_of[i] is the dense node index of token i (-1 for prompt tokens);
    ancestor[a, b] says node b is a strict ancestor of node a.
    """
    node_of = np.ascontiguousarray(node_of, dtype=np.int64)
    ancestor = np.ascontiguousarray(ancestor, dtype=np.bool_)
    n = node_of.shape[0]
    idx = np.arange(n)
    causal = idx[None, :] <= idx[:, None]
    prompt_col = (idx < prompt_len)[None, :]
    generated = node_of >= 0
    safe = np.where(generated, node_of, 0)
    same = node_of[:, None] == node_of[None, :]
    anc = ancestor[safe[:, None], safe[None, :]]
    pair_ok = generated[:, None] & generated[None, :] & (same | anc)
    return causal & (prompt_col | pair_ok)
