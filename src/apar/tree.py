"""Paragraph trees: the hierarchical plan behind a parallel generation.

A node slices into one sequence's token list.  ``first_child`` points at the
detail thread forked off the node, ``next_sibling`` at the continuation of
the node's own thread.  Nodes carry both pointers or neither.

``preorder`` yields the nodes in restore order: a node, its first_child
subtree, then its next_sibling subtree.  Restore, the flatten baseline and
the script layout (``script.lay_out_nodes``) call it; the training mask walks
in the same order itself.  ``subtree_last`` takes that order alone and gives
each subtree's last node, so a mask describes the order decoding produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol, Sequence, TypeVar

from .errors import TreeError
from .tokens import CONTROL_TOKENS

__all__ = [
    "ParagraphNode",
    "ParagraphTree",
    "validate",
    "preorder",
    "subtree_last",
    "restore",
    "path_to_root",
    "tree_to_dict",
]


@dataclass
class ParagraphNode:
    id: int
    seq: int
    start: int
    end: int | None = None
    first_child: int | None = None
    next_sibling: int | None = None

    def slice_bounds(self, seq_len: int) -> tuple[int, int]:
        return self.start, self.end if self.end is not None else seq_len


@dataclass
class ParagraphTree:
    root: int
    nodes: dict[int, ParagraphNode] = field(default_factory=dict)
    prompt_len: int = 0


def validate(tree: ParagraphTree, sequences: Mapping[int, Sequence[str]]) -> list[str]:
    """Return every violated structural invariant, node id ascending.

    An empty list means the tree is valid.  A node whose sequence is in
    ``sequences`` gets the range checks against its length; ``{}`` skips them.
    """
    violations: list[str] = []
    if tree.root not in tree.nodes:
        violations.append(f"root {tree.root} is not a known node")
        return violations

    pointer_targets: dict[int, list[int]] = {}
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        has_child = node.first_child is not None
        has_sibling = node.next_sibling is not None
        if has_child != has_sibling:
            violations.append(f"node {nid} has exactly 1 pointer")
        for target in (node.first_child, node.next_sibling):
            if target is None:
                continue
            if target not in tree.nodes:
                violations.append(f"node {nid} points at unknown node {target}")
            else:
                pointer_targets.setdefault(target, []).append(nid)
        if node.end is not None and node.end < node.start:
            violations.append(f"node {nid} has end {node.end} < start {node.start}")
        if node.seq in sequences:
            seq_len = len(sequences[node.seq])
            start, end = node.slice_bounds(seq_len)
            if start > seq_len or end > seq_len:
                violations.append(
                    f"node {nid} slice [{start},{end}) exceeds sequence {node.seq}"
                    f" length {seq_len}"
                )

    for target in sorted(pointer_targets):
        sources = pointer_targets[target]
        if len(sources) > 1:
            violations.append(f"node {target} has multiple parents {sorted(sources)}")
    if tree.root in pointer_targets:
        violations.append(f"root {tree.root} is pointed at by another node")

    root = tree.nodes[tree.root]
    if root.start != tree.prompt_len:
        violations.append(
            f"root start {root.start} differs from prompt length {tree.prompt_len}"
        )

    # Walk from the root; detect cycles and unreachable nodes.
    visited: set[int] = set()
    stack = [tree.root]
    cycle = False
    while stack:
        nid = stack.pop()
        if nid in visited:
            cycle = True
            violations.append(f"cycle detected at node {nid}")
            continue
        visited.add(nid)
        node = tree.nodes[nid]
        for target in (node.next_sibling, node.first_child):
            if target is not None and target in tree.nodes:
                stack.append(target)
    if not cycle:
        for nid in sorted(tree.nodes):
            if nid not in visited:
                violations.append(f"node {nid} unreachable from root")

    # Slices of one sequence must not overlap.
    by_seq: dict[int, list[ParagraphNode]] = {}
    for nid in visited:
        node = tree.nodes[nid]
        by_seq.setdefault(node.seq, []).append(node)
    for seq_id in sorted(by_seq):
        nodes = sorted(by_seq[seq_id], key=lambda n: (n.start, n.id))
        for prev, cur in zip(nodes, nodes[1:]):
            if prev.end is None or prev.end > cur.start:
                violations.append(
                    f"node {prev.id} and node {cur.id} overlap in sequence {seq_id}"
                )
    return violations


class _Linked(Protocol):
    id: int
    first_child: int | None
    next_sibling: int | None


_Node = TypeVar("_Node", bound=_Linked)


def preorder(root: int, nodes: Mapping[int, _Node]) -> Iterator[_Node]:
    """Yield the nodes in restore order: node, first_child subtree,
    next_sibling subtree.  Takes script and paragraph nodes alike; raises
    TreeError naming the node when an id is unknown or a node is reached
    twice, which covers cycles."""
    stack = [root]
    seen: set[int] = set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            raise TreeError(f"node {nid} is reached twice")
        seen.add(nid)
        try:
            node = nodes[nid]
        except KeyError:
            raise TreeError(f"unknown node id {nid}") from None
        yield node
        if node.next_sibling is not None:
            stack.append(node.next_sibling)
        if node.first_child is not None:
            stack.append(node.first_child)


def subtree_last(order: Sequence[_Node]) -> list[int]:
    """Per node of a preorder, the index of the last node of its subtree.

    A node's first_child follows it, and its next_sibling follows the
    first_child's subtree, so a subtree ends where its last pointee's does;
    pointees come after their node, so one right-to-left pass carries the
    ends up."""
    last = list(range(len(order)))
    for v in range(len(order) - 1, -1, -1):
        node = order[v]
        end = v
        if node.first_child is not None:
            end = last[end + 1]
        if node.next_sibling is not None:
            end = last[end + 1]
        last[v] = end
    return last


def restore(tree: ParagraphTree, sequences: Mapping[int, Sequence[str]]) -> list[str]:
    """Linearize the tree back into its content tokens: the flatten baseline.

    Emits each node's slice in ``preorder`` with the control tokens left
    out.  Prompt tokens are never part of the output.
    """
    out: list[str] = []
    for node in preorder(tree.root, tree.nodes):
        if node.seq not in sequences:
            raise TreeError(f"node {node.id} references unknown sequence {node.seq}")
        seq = sequences[node.seq]
        start, end = node.slice_bounds(len(seq))
        if start > len(seq) or end > len(seq):
            raise TreeError(
                f"node {node.id} slice [{start},{end}) outside sequence {node.seq}"
                f" of length {len(seq)}"
            )
        out.extend(seq[start:end])
    return [tok for tok in out if tok not in CONTROL_TOKENS]


def path_to_root(tree: ParagraphTree, node_id: int) -> list[int]:
    """Node ids from ``node_id`` up to the root, node first, root last.

    A node's path members are exactly the nodes whose content is visible
    to it: following next_sibling stays within the same thread, following
    first_child crosses into the forked thread, and either way the pointing
    node's content precedes the pointee's.  No program path calls it; it
    stays only because perfbench's ``layers.SPANS`` traces it.
    """
    if node_id not in tree.nodes:
        raise TreeError(f"unknown node id {node_id}")
    parents = {
        target: node.id
        for node in tree.nodes.values()
        for target in (node.first_child, node.next_sibling)
        if target is not None
    }
    path = [node_id]
    cur = node_id
    while cur != tree.root:
        nxt = parents.get(cur)
        if nxt is None:
            raise TreeError(f"node {cur} is not reachable from root {tree.root}")
        if nxt in path:
            raise TreeError(f"cycle detected at node {nxt}")
        path.append(nxt)
        cur = nxt
    return path


def tree_to_dict(tree: ParagraphTree) -> dict:
    """JSON-ready payload with a stable field order, so dumps are byte-reproducible."""
    return {
        "prompt_len": tree.prompt_len,
        "root": tree.root,
        "nodes": [
            {
                "id": node.id,
                "seq": node.seq,
                "start": node.start,
                "end": node.end,
                "first_child": node.first_child,
                "next_sibling": node.next_sibling,
            }
            for node in sorted(tree.nodes.values(), key=lambda n: n.id)
        ],
    }
