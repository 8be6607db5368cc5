"""Deterministic language models that replay a paragraph-tree script.

A script node carries literal content tokens only; the model inserts the
control tokens.  Given a context, the replay model walks the script to find
its position: plain tokens advance within the current node, a [Fork] not
followed by [Child] moves to the next sibling, and [Fork] [Child] descends
into the first child.  Divergence from the script raises, because a silent
fallback would mask engine bugs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence as Seq

from .errors import ScriptMismatch
from .tokens import CHILD, CONTROL_TOKENS, EOS, FORK
from .tree import preorder

__all__ = [
    "ScriptNode",
    "ScriptTree",
    "ReplayModel",
    "as_linear",
    "chain_nodes",
    "flatten_script",
    "random_script",
    "script_to_json",
    "script_from_json",
]


@dataclass
class ScriptNode:
    id: int
    tokens: tuple[str, ...]
    first_child: int | None = None
    next_sibling: int | None = None


@dataclass
class ScriptTree:
    root: int
    nodes: dict[int, ScriptNode]
    prompt: tuple[str, ...]
    category: str | None = None

    def __post_init__(self) -> None:
        for node in self.nodes.values():
            if not CONTROL_TOKENS.isdisjoint(node.tokens):
                bad = [t for t in node.tokens if t in CONTROL_TOKENS]
                raise ValueError(f"script node {node.id} contains control tokens {bad}")
            if (node.first_child is None) != (node.next_sibling is None):
                raise ValueError(f"script node {node.id} has exactly 1 pointer")


def chain_nodes(
    heads: Seq[Seq[str]], details: Seq[Seq[str]], tail: Seq[str] = ()
) -> dict[int, ScriptNode]:
    """The ordered-list shape: a chain of item heads, each forking its detail.

    Head i is node 2i; it forks its detail, node 2i + 1, and points at the
    next head, node 2i + 2.  The chain closes with the ``tail`` node, 2k for
    k items, which is empty when nothing follows the last item.
    """
    nodes: dict[int, ScriptNode] = {}
    for i, (head, detail) in enumerate(zip(heads, details, strict=True)):
        nodes[2 * i] = ScriptNode(2 * i, tuple(head), 2 * i + 1, 2 * i + 2)
        nodes[2 * i + 1] = ScriptNode(2 * i + 1, tuple(detail))
    nodes[2 * len(heads)] = ScriptNode(2 * len(heads), tuple(tail))
    return nodes


def flatten_script(script: ScriptTree) -> list[str]:
    """Content tokens of the nodes in ``preorder``."""
    out: list[str] = []
    for node, _ in preorder(script.root, script.nodes):
        out.extend(node.tokens)
    return out


_CONTENT, _AFTER_FORK, _DONE = 0, 1, 2


class ReplayModel:
    """Replays one script; deterministic given the context.

    ``state`` is a list the calling thread owns and the model alone fills:
    the scan position ``[checked, node, k, phase]``, where positions
    ``[0, checked)`` of the context are checked.  A call checks only the
    tokens appended since, so a call on a growing context costs the same at
    any length.  An empty state, or a context shorter than ``checked``, is
    checked again from the prompt.  A call that raises leaves the state as
    it was.
    """

    def __init__(self, script: ScriptTree):
        self.script = script

    def next_token(self, context: Seq[str], state: list) -> str:
        script = self.script
        n = len(context)
        if not state or n < state[0]:
            plen = len(script.prompt)
            if tuple(context[:plen]) != script.prompt:
                raise ScriptMismatch("context does not start with the script prompt")
            i, node, k, phase = plen, script.nodes[script.root], 0, _CONTENT
        else:
            i, node, k, phase = state
        while i < n:
            tok = context[i]
            if phase == _AFTER_FORK:
                if tok == CHILD:
                    node = script.nodes[node.first_child]
                    k = 0
                    phase = _CONTENT
                    i += 1
                    continue
                node = script.nodes[node.next_sibling]
                k = 0
                phase = _CONTENT
                continue  # reprocess tok as sibling content
            if phase == _DONE:
                raise ScriptMismatch(f"token {tok!r} after {EOS} at position {i}")
            if k < len(node.tokens):
                if tok != node.tokens[k]:
                    raise ScriptMismatch(
                        f"position {i}: expected {node.tokens[k]!r}, saw {tok!r}"
                    )
                k += 1
            elif node.first_child is not None:
                if tok != FORK:
                    raise ScriptMismatch(f"position {i}: expected {FORK}, saw {tok!r}")
                phase = _AFTER_FORK
            else:
                if tok != EOS:
                    raise ScriptMismatch(f"position {i}: expected {EOS}, saw {tok!r}")
                phase = _DONE
            i += 1
        if phase == _DONE:
            raise ScriptMismatch("next_token called on a finished context")
        state[:] = i, node, k, phase

        if phase == _AFTER_FORK:
            node = script.nodes[node.next_sibling]
            k = 0
        if k < len(node.tokens):
            return node.tokens[k]
        if node.first_child is not None:
            return FORK
        return EOS


class LinearModel(ReplayModel):
    """Sequential baseline: the replay model over the flattened script as one node."""

    # Bound in this class too, so a tracer wrapping LinearModel.next_token
    # times the sequential model apart from ReplayModel's.
    next_token = ReplayModel.next_token

    def __init__(self, script: ScriptTree):
        flat = ScriptNode(0, tuple(flatten_script(script)))
        super().__init__(ScriptTree(root=0, nodes={0: flat}, prompt=script.prompt))


def as_linear(script: ScriptTree) -> LinearModel:
    return LinearModel(script)


_VOCAB = [
    "the", "a", "of", "point", "step", "cost", "time", "note", "item", "case",
    "low", "high", "fast", "slow", "plan", "use", "run", "try", "mix", "end",
]


def random_script(
    seed: int,
    max_nodes: int = 16,
    max_node_len: int = 8,
    prompt_len: int = 2,
) -> ScriptTree:
    """Seeded random valid script obeying the 0-or-2 pointer rule.

    Grows the tree by repeatedly giving a random leaf two children, so any
    node either forks (both pointers) or is a leaf.
    """
    if max_nodes < 1 or max_node_len < 1:
        raise ValueError("bounds must be >= 1")
    rng = random.Random(seed)

    def content(allow_empty: bool = False) -> tuple[str, ...]:
        low = 0 if allow_empty else 1
        length = rng.randint(low, max_node_len)
        return tuple(rng.choice(_VOCAB) for _ in range(length))

    nodes = {0: ScriptNode(id=0, tokens=content())}
    leaves = [0]
    target = rng.randint(1, max_nodes)
    next_id = 1
    while len(nodes) + 2 <= target:
        leaf_id = leaves.pop(rng.randrange(len(leaves)))
        leaf = nodes[leaf_id]
        child = ScriptNode(id=next_id, tokens=content())
        sibling = ScriptNode(id=next_id + 1, tokens=content(allow_empty=True))
        next_id += 2
        nodes[child.id] = child
        nodes[sibling.id] = sibling
        nodes[leaf_id] = ScriptNode(
            id=leaf_id,
            tokens=leaf.tokens,
            first_child=child.id,
            next_sibling=sibling.id,
        )
        leaves.extend([child.id, sibling.id])
    prompt = tuple(f"q{rng.randrange(100)}" for _ in range(max(1, prompt_len)))
    return ScriptTree(root=0, nodes=nodes, prompt=prompt)


def script_to_json(script: ScriptTree) -> str:
    payload = {
        "prompt": list(script.prompt),
        "root": script.root,
        "category": script.category,
        "nodes": [
            {
                "id": node.id,
                "tokens": list(node.tokens),
                "first_child": node.first_child,
                "next_sibling": node.next_sibling,
            }
            for node in sorted(script.nodes.values(), key=lambda n: n.id)
        ],
    }
    return json.dumps(payload)


def _token_list(value: object, what: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(t, str) for t in value)):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(value)


def script_from_json(text: str) -> ScriptTree:
    """Load a script; raise ValueError for one the replay model cannot decode.

    Beyond the node checks of ScriptTree, the prompt and each node's tokens
    must be lists of strings, the category a string or null, the prompt
    must be non-empty and free of control tokens, node ids must be
    distinct, and the pointers from the root must reach every node exactly
    once, so the tree has no cycle and no node is silently dropped.
    """
    payload = json.loads(text)
    nodes = {
        entry["id"]: ScriptNode(
            id=entry["id"],
            tokens=_token_list(entry["tokens"], f"script node {entry['id']} tokens"),
            first_child=entry.get("first_child"),
            next_sibling=entry.get("next_sibling"),
        )
        for entry in payload["nodes"]
    }
    if len(nodes) != len(payload["nodes"]):
        raise ValueError("script node ids repeat")
    category = payload.get("category")
    if not (category is None or isinstance(category, str)):
        raise ValueError("script category must be a string or null")
    script = ScriptTree(
        root=payload["root"],
        nodes=nodes,
        prompt=_token_list(payload["prompt"], "script prompt"),
        category=category,
    )
    if not script.prompt:
        raise ValueError("script prompt is empty")
    bad = [t for t in script.prompt if t in CONTROL_TOKENS]
    if bad:
        raise ValueError(f"script prompt contains control tokens {bad}")
    seen = {node.id for node, _ in preorder(script.root, nodes)}
    unreached = [nid for nid in nodes if nid not in seen]
    if unreached:
        raise ValueError(f"script nodes {unreached} are not reached from the root")
    return script
