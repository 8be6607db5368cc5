"""Turn assistant responses into paragraph-tree training samples.

Three response kinds, tried in order once ambiguity is ruled out: numbered
lists (head/detail per item), blank-line paragraphs (first sentence as the
head, remainder as detail), and unstructured fallbacks kept as single nodes
so a model also sees responses that must stay sequential.

Chains are closed by empty terminator nodes so every produced tree keeps
the both-or-neither pointer rule; a terminator linearizes to a bare [EOS],
exactly what a decoding thread emits after its last fork.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import numpy as np

from .attention import LinearizedSample, build_loss_mask, linearize_script
from .script import ScriptNode, ScriptTree, chain_nodes
from .tokens import CHILD, CONTROL_TOKENS, EOS, FORK
from .tree import ParagraphTree, tree_to_dict

__all__ = [
    "Conversation",
    "TrainingSample",
    "KINDS",
    "tokenize",
    "extract_ordered_list",
    "extract_paragraphs",
    "classify_response",
    "build_training_sample",
    "extract_conversation",
    "corpus_stats",
    "assemble_with_ratio",
]

KINDS = ("ordered_list", "paragraph", "unstructured")

LIST_ITEM_RE = re.compile(r"^\s*(\d+)\.\s+([^:\n]{1,80}):\s*(.+)$")
MIN_LIST_ITEMS = 3
MIN_DETAIL_CHARS = 10

# Code fences, TeX math and URLs leave a response unstructured.
_AMBIGUOUS_RE = re.compile(r"```|\$[^$\n]+\$|\\\[|\\\(|https?://")

_SENTENCE_END_RE = re.compile(r"[.!?:](?=\s|$)")


@dataclass
class Conversation:
    id: str
    turns: list[tuple[str, str]]

    def __post_init__(self) -> None:
        for i, (role, text) in enumerate(self.turns):
            if not (isinstance(role, str) and isinstance(text, str)):
                raise ValueError(
                    f"conversation {self.id}: turn {i} role and text must be strings"
                )
            expected = "user" if i % 2 == 0 else "assistant"
            if role != expected:
                raise ValueError(
                    f"conversation {self.id}: turn {i} has role {role!r},"
                    f" expected {expected!r}"
                )

    @classmethod
    def from_dict(cls, payload: dict) -> "Conversation":
        turns = [(t["role"], t["text"]) for t in payload["turns"]]
        return cls(id=str(payload["id"]), turns=turns)


@dataclass
class TrainingSample:
    kind: str
    prompt_text: str
    sample: LinearizedSample
    tree: ParagraphTree
    loss_mask: np.ndarray

    def to_record(self, conv_id: str, turn: int) -> dict:
        return {
            "id": conv_id,
            "turn": turn,
            "kind": self.kind,
            "prompt_text": self.prompt_text,
            "prompt_len": self.sample.prompt_len,
            "tokens": self.sample.tokens,
            "node_of": self.sample.node_of,
            "loss_mask": [bool(b) for b in self.loss_mask],
            "tree": tree_to_dict(self.tree),
        }


def _has_surface(text: str) -> bool:
    """Whether a control surface occurs in the text, as a word or inside one.

    A whole-word surface is also a substring, so False proves the text's
    words and ``CONTROL_TOKENS`` disjoint without hashing a word.  One scan
    per surface, written out: a generator over the set costs more than the
    scans on short texts.
    """
    return FORK in text or CHILD in text or EOS in text


def tokenize(text: str) -> list[str]:
    """Whitespace word split; reserved control surfaces get escaped."""
    tokens = text.split()
    if not _has_surface(text) or CONTROL_TOKENS.isdisjoint(tokens):
        return tokens
    return [f"\\{tok}" if tok in CONTROL_TOKENS else tok for tok in tokens]


def _chain_tree(
    preamble: str | None, pairs: list[tuple[str, str]], tail: str = ""
) -> ScriptTree:
    """Sibling chain of forking head nodes, each with a detail child.

    ``preamble`` (when present) becomes the root, forking into the chain.
    ``tail`` is trailing head-level text; it forms the chain's closing node,
    which is empty when there is nothing after the last item.
    """
    nodes = chain_nodes(
        [tokenize(head) for head, _ in pairs],
        [tokenize(detail) for _, detail in pairs],
        tokenize(tail),
    )
    if preamble is None or not preamble.strip():
        return ScriptTree(root=0, nodes=nodes, prompt=())
    pre = len(nodes)
    nodes[pre] = ScriptNode(pre, tuple(tokenize(preamble)), 0, pre + 1)
    nodes[pre + 1] = ScriptNode(pre + 1, ())
    return ScriptTree(root=pre, nodes=nodes, prompt=())


def extract_ordered_list(text: str) -> ScriptTree | None:
    """Parse a numbered head-colon-detail list; None when the rules reject it.

    Needs at least three numbered points, each with a detail of at least ten
    characters.  Lines between items extend the preceding item's detail.
    """
    lines = text.split("\n")
    matches: list[tuple[int, str, str]] = []
    for idx, line in enumerate(lines):
        m = LIST_ITEM_RE.match(line)
        if m:
            head = f"{m.group(1)}. {m.group(2).strip()}:"
            matches.append((idx, head, m.group(3).strip()))
    if len(matches) < MIN_LIST_ITEMS:
        return None
    pairs: list[tuple[str, str]] = []
    for k, (idx, head, detail) in enumerate(matches):
        stop = matches[k + 1][0] if k + 1 < len(matches) else len(lines)
        extra = " ".join(l.strip() for l in lines[idx + 1 : stop] if l.strip())
        full_detail = f"{detail} {extra}".strip() if extra else detail
        if len(full_detail) < MIN_DETAIL_CHARS:
            return None
        pairs.append((head, full_detail))
    preamble = "\n".join(lines[: matches[0][0]])
    return _chain_tree(preamble, pairs)


def _split_first_sentence(paragraph: str) -> tuple[str, str] | None:
    m = _SENTENCE_END_RE.search(paragraph)
    if not m:
        return None
    first = paragraph[: m.end()].strip()
    rest = paragraph[m.end() :].strip()
    if not rest:
        return None
    return first, rest


def extract_paragraphs(text: str) -> ScriptTree | None:
    """Blank-line paragraphs with the first sentence as each head.

    Single-sentence paragraphs fork nothing; their text rides along in the
    same thread node as the next splittable head.  None when no paragraph
    splits.
    """
    paragraphs = [p.strip() for p in re.split(r"\n{2,}", text) if p.strip()]
    pairs: list[tuple[str, str]] = []
    pending: list[str] = []
    tail = ""
    for para in paragraphs:
        split = _split_first_sentence(para)
        if split is None:
            pending.append(para)
            continue
        first, rest = split
        head = " ".join(pending + [first])
        pairs.append((head, rest))
        pending = []
    if not pairs:
        return None
    if pending:
        tail = " ".join(pending)
    return _chain_tree(None, pairs, tail=tail)


def _parse_response(text: str) -> tuple[str, ScriptTree | None]:
    """The response's kind and, for a list or paragraphs, its parsed tree."""
    if _AMBIGUOUS_RE.search(text):
        return "unstructured", None
    if _has_surface(text) and not CONTROL_TOKENS.isdisjoint(text.split()):
        return "unstructured", None
    content = extract_ordered_list(text)
    if content is not None:
        return "ordered_list", content
    content = extract_paragraphs(text)
    if content is not None:
        return "paragraph", content
    return "unstructured", None


def classify_response(text: str) -> str:
    """Total, deterministic response classification."""
    return _parse_response(text)[0]


def _prompt_text(conversation: Conversation, turn_index: int) -> str:
    return "\n".join(
        f"{role}: {text}" for role, text in conversation.turns[:turn_index]
    )


def build_training_sample(conversation: Conversation, turn_index: int) -> TrainingSample:
    role, text = conversation.turns[turn_index]
    if role != "assistant":
        raise ValueError(f"turn {turn_index} of {conversation.id} is not an assistant turn")
    kind, script = _parse_response(text)
    if script is None:
        script = ScriptTree(
            root=0,
            nodes={0: ScriptNode(id=0, tokens=tuple(tokenize(text)))},
            prompt=(),
        )
    prompt_text = _prompt_text(conversation, turn_index)
    script.prompt = tuple(tokenize(prompt_text))
    sample, tree = linearize_script(script)
    return TrainingSample(
        kind=kind,
        prompt_text=prompt_text,
        sample=sample,
        tree=tree,
        loss_mask=build_loss_mask(sample),
    )


def extract_conversation(conversation: Conversation) -> list[tuple[int, TrainingSample]]:
    out = []
    for i, (role, _) in enumerate(conversation.turns):
        if role == "assistant":
            out.append((i, build_training_sample(conversation, i)))
    return out


def corpus_stats(
    labeled: list[tuple[str, TrainingSample]],
) -> dict:
    """Counts per kind plus list-coverage ratios; ``labeled`` = (conv id, sample)."""
    counts = {kind: 0 for kind in KINDS}
    by_conv: dict[str, list[str]] = {}
    for conv_id, sample in labeled:
        counts[sample.kind] += 1
        by_conv.setdefault(conv_id, []).append(sample.kind)
    total = len(labeled)
    structured = counts["ordered_list"] + counts["paragraph"]
    dialogs = len(by_conv)
    with_list = sum(1 for kinds in by_conv.values() if "ordered_list" in kinds)
    return {
        "samples": total,
        "conversations": dialogs,
        "counts": counts,
        "structured_ratio": structured / total if total else 0.0,
        "list_response_ratio": counts["ordered_list"] / total if total else 0.0,
        "list_dialog_ratio": with_list / dialogs if dialogs else 0.0,
    }


def assemble_with_ratio(
    labeled: list[tuple[str, TrainingSample]],
    ratio: tuple[int, int],
    seed: int = 0,
) -> list[tuple[str, TrainingSample]]:
    """Seeded subsample hitting a structured:unstructured ratio, input order kept."""
    a, b = ratio
    if a <= 0 or b <= 0:
        raise ValueError("ratio parts must be positive")
    structured = [i for i, (_, s) in enumerate(labeled) if s.kind != "unstructured"]
    unstructured = [i for i, (_, s) in enumerate(labeled) if s.kind == "unstructured"]
    k = min(len(structured) // a, len(unstructured) // b)
    rng = random.Random(seed)
    pick_s = sorted(rng.sample(structured, a * k))
    pick_u = sorted(rng.sample(unstructured, b * k))
    chosen = sorted(pick_s + pick_u)
    return [labeled[i] for i in chosen]
