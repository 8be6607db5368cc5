"""Deterministic language models that replay a paragraph-tree script.

A script node carries literal content tokens only; ``lay_out_nodes``, the
one layout walk, places the control tokens around them.  The replay model
reads it through ``lay_out``, and a training sample is built inside it
(``attention.linearize_script``).  Divergence from the script raises,
because a silent fallback would mask engine bugs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, NoReturn, Sequence as Seq

from .errors import ScriptMismatch
from .tokens import CHILD, CONTROL_TOKENS, EOS, FORK, has_surface
from .tree import preorder

__all__ = [
    "ScriptNode",
    "ScriptTree",
    "ReplayModel",
    "as_linear",
    "chain_nodes",
    "flatten_script",
    "lay_out",
    "lay_out_nodes",
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
            # A control token among the words is a surface in them joined,
            # so a node whose joined words hold none hashes no fresh word.
            if has_surface(" ".join(node.tokens)) and not CONTROL_TOKENS.isdisjoint(node.tokens):
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
    reached = 0
    for reached, (node, _) in enumerate(preorder(script.root, script.nodes), 1):
        out.extend(node.tokens)
    if reached < len(script.nodes):
        _refuse_unreached(script)
    return out


def _refuse_unreached(script: ScriptTree) -> NoReturn:
    """Raise ValueError naming the nodes the root does not reach.

    For a walk from the root that yielded fewer nodes than the script
    holds: the walk refuses a node reached twice, so the rest were dropped.
    """
    seen = {node.id for node, _ in preorder(script.root, script.nodes)}
    unreached = [nid for nid in script.nodes if nid not in seen]
    raise ValueError(f"script nodes {unreached} are not reached from the root")


def lay_out(script: ScriptTree) -> tuple[list[str], dict[int, int]]:
    """The training layout of a script (``lay_out_nodes``), and where each
    node starts in it, in ``preorder`` order: a node ends where the next one
    starts, and the last at the layout's end."""
    tokens = list(script.prompt)
    starts = {node.id: start for node, start in lay_out_nodes(script, tokens)}
    if len(starts) < len(script.nodes):
        _refuse_unreached(script)
    return tokens, starts


def lay_out_nodes(script: ScriptTree, tokens: list[str]) -> Iterator[tuple[ScriptNode, int]]:
    """Append the script's nodes to ``tokens`` in the training layout,
    yielding each node and its start once its tokens are in, so that it
    ends at ``len(tokens)``.

    Each node in ``preorder``: [Child] if the node is its parent's first
    child, its content, then [Fork] if it has children or [EOS] if not.  A
    first child directly follows its parent in preorder, so the walk tells a
    [Child] from the node before it.  This is the one layout rule: a
    script's training sample (``attention.linearize_script``) is built in
    this walk, and the replay model answers a thread by reading the same
    layout (``lay_out``) with a cursor, so the model decodes exactly what
    training shows.  A caller keys what it builds by node id, and refuses
    the script when that holds fewer nodes than the script: the walk
    reached fewer, or two share an id.
    """
    child = None  # the first child due next, if the node before forked
    for node, _ in preorder(script.root, script.nodes):
        start = len(tokens)
        if node.id == child:
            tokens.append(CHILD)
        tokens += node.tokens
        child = node.first_child
        tokens.append(EOS if child is None else FORK)
        yield node, start


class ReplayModel:
    """Replays one script; deterministic given the context.

    A thread's context is the script's ``lay_out`` less the first-child
    subtrees it did not enter, so a cursor into the layout checks it: a
    [Fork] not followed by [Child] jumps to the node's next sibling, and an
    [EOS] moves onto the sentinel past the end, which no token matches.

    ``state`` is a list the calling thread owns and the model alone fills:
    ``[checked, pos]``, where positions ``[0, checked)`` of the context are
    checked and ``layout[pos]`` is the token due next.  A call checks only
    the tokens appended since, so a call on a growing context costs the same
    at any length.  An empty state, or a context shorter than ``checked``,
    is checked again from the prompt.  A call that raises leaves the state
    as it was.
    """

    def __init__(self, script: ScriptTree):
        self.script = script
        self.layout, starts = lay_out(script)
        self.layout.append(None)  # the sentinel
        # A fork's [Fork] sits just before its first child's [Child].
        forks = [node for node in script.nodes.values() if node.first_child is not None]
        self.sibling_after = {starts[f.first_child] - 1: starts[f.next_sibling] for f in forks}

    def next_token(self, context: Seq[str], state: list) -> str:
        layout = self.layout
        end = len(layout) - 1
        n = len(context)
        if not state or n < state[0]:
            prompt = self.script.prompt
            if tuple(context[: len(prompt)]) != prompt:
                raise ScriptMismatch("context does not start with the script prompt")
            i = pos = len(prompt)
        else:
            i, pos = state
        while i < n:
            tok = context[i]
            want = layout[pos]
            if tok == want:
                pos = end if tok == EOS else pos + 1
                i += 1
            elif want == CHILD:  # no [Child] after the [Fork]: on to the sibling
                pos = self.sibling_after[pos - 1]
            elif pos == end:
                raise ScriptMismatch(f"token {tok!r} after {EOS} at position {i}")
            else:
                raise ScriptMismatch(f"position {i}: expected {want!r}, saw {tok!r}")
        if pos == end:
            raise ScriptMismatch("next_token called on a finished context")
        state[:] = n, pos
        tok = layout[pos]
        return layout[self.sibling_after[pos - 1]] if tok == CHILD else tok


class LinearModel(ReplayModel):
    """Sequential baseline: the replay model over the flattened script as one node."""

    # Bound in this class too, so a tracer wrapping LinearModel.next_token
    # times the sequential model apart from ReplayModel's.
    next_token = ReplayModel.next_token

    def __init__(self, script: ScriptTree):
        # The layout of one node holding the content: written out, since the
        # content was checked when ``script`` was built and one node forks
        # nowhere.
        self.script = script
        self.layout = [*script.prompt, *flatten_script(script), EOS, None]
        self.sibling_after = {}


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
    """The script as JSON, nodes in id order: the documented inverse of
    ``script_from_json``.  Where that accepts the text, it reads back a
    script equal to this one, whose JSON is the same text."""
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


def json_int(value: object, what: str) -> int:
    """``value`` as a JSON integer, not a bool; else ValueError for ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def script_from_json(text: str) -> ScriptTree:
    """Load a script; raise ValueError for one the replay model cannot decode.

    Beyond the node checks of ScriptTree, the root, node ids and pointers
    must be integers, the prompt and each node's tokens lists of strings,
    the category a string or null, the prompt must be non-empty and free of
    control tokens, node ids must be distinct, and the pointers from the
    root must reach every node exactly once, so the tree has no cycle and
    no node is silently dropped.
    """
    payload = json.loads(text)
    nodes = {}
    for i, entry in enumerate(payload["nodes"]):
        nid = json_int(entry["id"], f"script nodes[{i}] id")
        first_child, next_sibling = (
            None if entry.get(key) is None else json_int(entry[key], f"script node {nid} {key}")
            for key in ("first_child", "next_sibling")
        )
        tokens = _token_list(entry["tokens"], f"script node {nid} tokens")
        nodes[nid] = ScriptNode(nid, tokens, first_child, next_sibling)
    if len(nodes) != len(payload["nodes"]):
        raise ValueError("script node ids repeat")
    category = payload.get("category")
    if not (category is None or isinstance(category, str)):
        raise ValueError("script category must be a string or null")
    script = ScriptTree(
        root=json_int(payload["root"], "script root"),
        nodes=nodes,
        prompt=_token_list(payload["prompt"], "script prompt"),
        category=category,
    )
    if not script.prompt:
        raise ValueError("script prompt is empty")
    bad = [t for t in script.prompt if t in CONTROL_TOKENS]
    if bad:
        raise ValueError(f"script prompt contains control tokens {bad}")
    flatten_script(script)  # the walk refuses a cycle and a node it does not reach
    return script
