"""Mask-construction kernel: the package's one O(n^2) fill, in numpy.

Every mask starts as a copy of the causal lower triangle, read from a
read-only strided template: a buffer of m ones then m zeros, viewed as an
(m, m) array with strides (-1, 1), so row i starts i bytes before the last
one and holds i + 1 ones.  The template is rebuilt at n when a larger n
arrives, so the module holds 2 * n_max bytes, not a cached n-by-n triangle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_causal = np.ones((0, 0), dtype=np.bool_)


def _causal_template(n: int) -> np.ndarray:
    """A read-only (m, m) causal lower triangle, m >= n, over 2m bytes."""
    global _causal
    causal = _causal
    if n > len(causal):
        buf = np.zeros(2 * n, dtype=np.bool_)
        buf[:n] = True
        # Window k holds n - k ones; windows n-1 down to 0 hold 1 up to n.
        causal = _causal = sliding_window_view(buf, n)[n - 1 :: -1]
    return causal


def build_mask_array(node_of: Sequence[int], last: list[int], prompt_len: int) -> np.ndarray:
    """Preorder-subtree mask fill, band by band.

    node_of[i] is the dense preorder index of token i's node.  From
    prompt_len (at least 0) on the indices never decrease, so each node's
    tokens form one block and node v's subtree, nodes v to last[v], one
    stretch of rows.  Earlier positions are prompt, seen by every later one.
    A generated token sees an earlier one exactly when its node is in the
    earlier token's node's subtree.

    Node v's tokens end at prompt_len plus the generated positions whose
    index is at most v, one bisection of the sorted indices.  A node with
    tokens whose subtree ends at row s < n is a cut: rows s on lose its
    columns.  The distinct cut rows split the rows into bands, and every
    row of a band sees the same columns left of the band's top.  The fill
    copies the causal triangle, which is already right for the first band
    and right of each later band's top.  Each later band then gets the row
    just above it over the columns left of its top, one broadcast write,
    and loses the columns of the nodes cut at its top.  The result is a
    C-contiguous (n, n) bool array that owns its data.
    """
    n = len(node_of)
    mask = _causal_template(n)[:n, :n].copy()
    gen = node_of[prompt_len:]
    ends = [prompt_len + bisect_right(gen, v) for v in range(len(last))]
    cuts: dict[int, list[tuple[int, int]]] = {}
    start = prompt_len
    for end, v_last in zip(ends, last):
        stop = ends[v_last]
        if start < end and stop < n:
            cuts.setdefault(stop, []).append((start, end))
        start = end
    tops = sorted(cuts)
    for top, bottom in zip(tops, [*tops[1:], n]):
        band = mask[top:bottom]
        band[:, :top] = mask[top - 1, :top]
        for start, end in cuts[top]:
            band[:, start:end] = False
    return mask
