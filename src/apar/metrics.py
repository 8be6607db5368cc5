"""Efficiency metrics computed from decode traces and trees.

Cache figures are logical: distinct cached tokens with shared prefixes
counted once.  The flatten reference treats the linearized generation as if
it had been decoded sequentially.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Mapping, Sequence as Seq

from .engine import LOGICAL_PEAK, ROW_WIDTH, DecodeTrace
from .tokens import CHILD
from .tree import ParagraphTree, restore

__all__ = [
    "max_cached_tokens",
    "flatten_max_cached",
    "mean_attended_tokens",
    "flatten_mean_attended",
    "saved_ratio",
    "thread_stats",
    "REPORT_COLUMNS",
    "write_report_csv",
    "write_report_json",
]

REPORT_COLUMNS = [
    "name",
    "category",
    "apar_cached",
    "flatten_cached",
    "cached_saved_pct",
    "apar_attended",
    "flatten_attended",
    "attended_saved_pct",
    "apar_steps",
    "ar_steps",
    "step_speedup",
    "threads",
]


def max_cached_tokens(trace: DecodeTrace) -> int:
    """Peak logical cache slots over the run's steps, prompt included.

    The last row holds the group's running peak; a cut's [EOS] is not in it.
    """
    if not trace.rows:
        return trace.prompt_len
    return trace.rows[-ROW_WIDTH + LOGICAL_PEAK]


def flatten_max_cached(tree: ParagraphTree, sequences: Mapping[int, Seq[str]]) -> int:
    """Cache needed to decode the flattened generation sequentially."""
    flat = restore(tree, sequences, strip_control=True)
    return tree.prompt_len + len(flat) + 1  # trailing [EOS] slot


def mean_attended_tokens(tree: ParagraphTree, sequences: Mapping[int, Seq[str]]) -> float:
    """Mean context length over every sampled token of the group.

    Each node's tokens were sampled by its owning thread at their sequence
    positions; an injected [Child] was never sampled and is skipped.
    """
    total = 0
    count = 0
    for node in tree.nodes.values():
        seq = sequences[node.seq]
        start, end = node.slice_bounds(len(seq))
        if start < end and seq[start] == CHILD:
            start += 1
        n = max(end - start, 0)
        total += n * (start + end - 1) // 2  # positions start .. end - 1
        count += n
    if count == 0:
        return 0.0
    return total / count


def flatten_mean_attended(tree: ParagraphTree, sequences: Mapping[int, Seq[str]]) -> float:
    """Mean context length decoding the flattened generation sequentially."""
    flat_len = len(restore(tree, sequences, strip_control=True))
    # flat_len + 1 samples at contexts prompt_len .. prompt_len + flat_len
    return tree.prompt_len + flat_len / 2.0


def saved_ratio(apar_value: float, flatten_value: float) -> float:
    """Percentage saved relative to the flatten reference."""
    if flatten_value == 0:
        raise ValueError("flatten reference value is zero")
    return (flatten_value - apar_value) / flatten_value * 100.0


def thread_stats(counts: Seq[int]) -> tuple[float, float]:
    """(mean thread count, fraction of responses with >= 2 threads)."""
    if not counts:
        raise ValueError("no thread counts supplied")
    mean = sum(counts) / len(counts)
    parallel = sum(1 for c in counts if c >= 2) / len(counts)
    return mean, parallel


def write_report_csv(rows: Iterable[Mapping[str, object]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in REPORT_COLUMNS})


def write_report_json(rows: Iterable[Mapping[str, object]], path: str) -> None:
    ordered = [{col: row.get(col) for col in REPORT_COLUMNS} for row in rows]
    with open(path, "w") as fh:
        json.dump(ordered, fh, indent=2)
        fh.write("\n")
