"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload is a fixed, seeded list of operations called a round, plus a
few operations to warm up on.  Every seed gives inputs of the same sizes;
the seed only changes their content, shape and order, so rounds of
different seeds cost about the same.  Each operation returns what the
program produced; ``check`` judges it after the timer has stopped and
calls no traced entry point.

The program is called through module attributes (``sim.run_simulation``,
not a name bound at import), so the tracer's wrappers are picked up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from apar import attention, engine, extract, metrics, script, sim, tree

NO_LIMIT = 1 << 30


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], bool]
    tokens: Callable[[object], int]  # units of work the op did, from its output


# -- serve-paper -----------------------------------------------------------

# The paper queues 1000 list requests at 350 concurrent on a 600-block pool.
# 300 requests at the same 0.35 ratio, on the same pool, still fill the pool
# and preempt hundreds of times per mode, while one simulation takes about
# 1.1 s instead of 6 s on a 2-CPU Xeon: short enough to repeat it a dozen
# times per run.
SERVE_REQUESTS = 300
SERVE_WARM_REQUESTS = 40


def serve_scripts(rng: random.Random, count: int) -> list:
    """List requests of 4 to 6 items with details of 25 to 35 tokens.

    Every seed draws the same multiset of shapes; it sets their pairing and
    their order in the queue.
    """
    items = [4 + i % 3 for i in range(count)]
    details = [25 + i % 11 for i in range(count)]
    rng.shuffle(details)
    shapes = list(zip(items, details))
    rng.shuffle(shapes)
    return [sim.list_script(items=k, detail_len=d) for k, d in shapes]


def _sim_ops(scripts: list) -> list[Op]:
    expected = sum(len(script.flatten_script(s)) for s in scripts)
    ops = []
    for mode in ("apar", "ar"):
        config = sim.SimConfig(
            workload=scripts, mode=mode, concurrency_limit=round(0.35 * len(scripts))
        )

        def check(report, n=len(scripts)):
            summary = report.summary
            return summary["completed"] == n and summary["completed_content"] == expected

        # Tokens are content tokens sampled, preempted ones included: the
        # number of sampled control tokens is not visible without tracing.
        ops.append(
            Op(
                lambda c=config: sim.run_simulation(c),
                check,
                lambda report: report.summary["content_tokens"],
            )
        )
    return ops


class ServePaper:
    def __init__(self, seed: int):
        scripts = serve_scripts(random.Random(seed), SERVE_REQUESTS)
        self.ops = _sim_ops(scripts)
        self.warm_ops = _sim_ops(scripts[:SERVE_WARM_REQUESTS])


# -- decode-bench ----------------------------------------------------------

SHORT_NODES = (5, 7, 9, 11, 13, 15)  # node counts, cycled over the short scripts
SHORT_SCRIPTS = 160
# Flattened content tokens of the long list scripts.  Longer ones are left
# out: the apar + ar pair takes 1.1 s at 8k and 3.3 s at 16k on a 2-CPU
# Xeon, and a round must stay near a second so that a run holds enough
# rounds for each op's median time to be steady.
LONG_TOKENS = (1000, 2000, 5000)


def short_script(rng: random.Random, nodes: int) -> script.ScriptTree:
    """Of 3 * ``nodes`` random_scripts, the one nearest ``nodes`` nodes of 4.25 tokens.

    A fixed number of candidates keeps set-up time the same for every seed.
    """
    def distance(s: script.ScriptTree) -> tuple[int, float]:
        return abs(len(s.nodes) - nodes), abs(len(script.flatten_script(s)) - 4.25 * nodes)

    candidates = (
        script.random_script(rng.randrange(1 << 30), max_nodes=nodes, max_node_len=8)
        for _ in range(3 * nodes)
    )
    return min(candidates, key=distance)


def long_script(tokens: int) -> script.ScriptTree:
    """A list script of about ``tokens`` content tokens, one item per 400.

    The shape is fixed: apar's cost grows with detail length squared, so a
    seeded item count would make the long scripts' cost differ by seed.
    """
    items = max(3, round(tokens / 400))
    return sim.list_script(items=items, detail_len=(tokens - 4) // items - 6)


def _decode_op(s: script.ScriptTree) -> Op:
    expected = script.flatten_script(s)
    forks = sum(1 for node in s.nodes.values() if node.first_child is not None)

    def run():
        prompt = list(s.prompt)
        apar = engine.apar_decode(
            prompt, script.ReplayModel(s), max_steps=NO_LIMIT, max_seq_len=NO_LIMIT
        )
        ar = engine.ar_decode(
            prompt, script.as_linear(s), max_steps=NO_LIMIT, max_seq_len=NO_LIMIT
        )
        seqs = apar.sequences_map()
        figures = (
            metrics.max_cached_tokens(apar.trace),
            metrics.flatten_max_cached(apar.tree, seqs),
            metrics.mean_attended_tokens(apar.tree, seqs),
            metrics.flatten_mean_attended(apar.tree, seqs),
        )
        return apar, ar, figures

    def check(out) -> bool:
        apar, ar, figures = out
        return (
            apar.output == expected
            and ar.output == expected
            and not apar.trace.truncated
            and not ar.trace.truncated
            and not tree.validate(apar.tree, apar.sequences_map())
            and figures[1] == len(s.prompt) + len(expected) + 1
            and min(figures) > 0
        )

    # Sampled tokens: apar emits content, one [Fork] per forking node and one
    # [EOS] per thread; ar emits content and one [EOS].
    sampled = (len(expected) + 2 * forks + 1) + (len(expected) + 1)
    return Op(run, check, lambda out: sampled)


class DecodeBench:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        scripts = [short_script(rng, SHORT_NODES[i % len(SHORT_NODES)]) for i in range(SHORT_SCRIPTS)]
        scripts += [long_script(n) for n in LONG_TOKENS]
        rng.shuffle(scripts)
        self.ops = [_decode_op(s) for s in scripts]
        small = [s for s in scripts if len(s.nodes) == SHORT_NODES[-1]][:4]
        self.warm_ops = [_decode_op(s) for s in small] + [_decode_op(long_script(LONG_TOKENS[0]))]


# -- prep-corpus -----------------------------------------------------------

SHORT_CONVS = 1500
# Linearized sample lengths of the long list answers: n from 2k to 4k.
LONG_SAMPLE_TOKENS = tuple(2000 + round(i * 2000 / 11) for i in range(12))

_WORDS = (
    "time cost plan note step item case point value model cache block thread "
    "table order list water light sleep money focus habit daily early later "
    "simple small large quick slow clear short long first final common useful "
    "review change test write read keep check start build share save reduce "
    "weekly garden market travel budget schedule routine energy balance method"
).split()


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _sentence(rng: random.Random, lo: int = 4, hi: int = 10) -> str:
    text = _words(rng, rng.randint(lo, hi))
    return text[0].upper() + text[1:] + "."


def _list_text(rng: random.Random, heads: list[int], details: list[int], preamble: bool) -> str:
    lines = [_sentence(rng)] if preamble else []
    for i, (h, d) in enumerate(zip(heads, details), start=1):
        lines.append(f"{i}. {_words(rng, h).capitalize()}: {_words(rng, d)}.")
    return "\n".join(lines)


def _paragraph_text(rng: random.Random) -> str:
    paras = []
    for i in range(rng.randint(2, 4)):
        sentences = rng.randint(2, 3) if i == 0 else rng.randint(1, 3)
        paras.append(" ".join(_sentence(rng) for _ in range(sentences)))
    return "\n\n".join(paras)


def _unstructured_text(rng: random.Random, variant: int) -> str:
    if variant == 0:
        return f"{_sentence(rng)}\n```\n{rng.choice(_WORDS)} = {rng.randint(0, 99)}\n```"
    if variant == 1:
        return f"See https://example.org/{rng.choice(_WORDS)} for {_words(rng, 5)}."
    if variant == 2:
        return f"{_sentence(rng)} The value is ${rng.choice('xyz')} + {rng.randint(1, 9)}$ here."
    return _words(rng, rng.randint(3, 12)).capitalize()  # one sentence, no end mark


def _short_answer(rng: random.Random, kind: str) -> str:
    if kind == "ordered_list":
        k = rng.randint(3, 6)
        heads = [rng.randint(1, 3) for _ in range(k)]
        details = [rng.randint(3, 14) for _ in range(k)]
        return _list_text(rng, heads, details, preamble=rng.random() < 0.5)
    if kind == "paragraph":
        return _paragraph_text(rng)
    return _unstructured_text(rng, rng.randrange(4))


# Kinds of the assistant turns of short conversations, cycled: half are
# single-turn, the rest are two- and three-turn dialogs.
_SHORT_PATTERNS = (
    ("ordered_list",),
    ("paragraph",),
    ("unstructured",),
    ("ordered_list",),
    ("paragraph",),
    ("unstructured", "ordered_list"),
    ("paragraph", "unstructured"),
    ("ordered_list", "paragraph"),
    ("unstructured", "paragraph", "ordered_list"),
    ("ordered_list", "unstructured", "paragraph"),
)
_QUESTION_WORDS = 8


def _question(rng: random.Random) -> str:
    return _words(rng, _QUESTION_WORDS) + "?"


def long_conversation(rng: random.Random, conv_id: str, n: int):
    """One question and a list answer whose sample is exactly ``n`` tokens.

    Sample length: prompt ("user:" plus the question) + each head ("1.",
    its words, then [Fork]) + each detail ([Child], its words, [EOS]) + the
    closing [EOS].
    """
    k = rng.randint(20, 40)
    heads = [rng.randint(1, 3) for _ in range(k)]
    budget = n - (1 + _QUESTION_WORDS) - sum(h + 2 for h in heads) - 2 * k - 1
    cuts = sorted(rng.sample(range(1, budget - 3 * k), k - 1))
    details = [b - a + 3 for a, b in zip([0] + cuts, cuts + [budget - 3 * k])]
    turns = [("user", _question(rng)), ("assistant", _list_text(rng, heads, details, False))]
    return extract.Conversation(id=conv_id, turns=turns), ("ordered_list",)


def short_conversation(rng: random.Random, conv_id: str, kinds: tuple[str, ...]):
    turns = []
    for kind in kinds:
        turns += [("user", _question(rng)), ("assistant", _short_answer(rng, kind))]
    return extract.Conversation(id=conv_id, turns=turns), kinds


def expected_row_counts(ts) -> np.ndarray:
    """Mask row true-counts from the tree alone: prompt + ancestors + causal."""
    nodes = ts.tree.nodes
    parent = {}
    for node in nodes.values():
        for target in (node.first_child, node.next_sibling):
            if target is not None:
                parent[target] = node.id
    plen = ts.sample.prompt_len
    counts = np.arange(1, len(ts.sample.tokens) + 1)
    for node in nodes.values():
        seen, cur = 0, node.id
        while cur in parent:
            cur = parent[cur]
            seen += nodes[cur].end - nodes[cur].start
        counts[node.start : node.end] = plen + seen + np.arange(1, node.end - node.start + 1)
    return counts


def _prep_op(conv, kinds: tuple[str, ...]) -> Op:
    def run():
        return [
            (sample, attention.build_training_mask(sample.sample, sample.tree))
            for _, sample in extract.extract_conversation(conv)
        ]

    def check(out) -> bool:
        return [s.kind for s, _ in out] == list(kinds) and all(
            np.array_equal(mask.sum(axis=1), expected_row_counts(s)) for s, mask in out
        )

    return Op(run, check, lambda out: sum(len(s.sample.tokens) for s, _ in out))


class PrepCorpus:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        convs = [
            short_conversation(rng, f"s{i}", _SHORT_PATTERNS[i % len(_SHORT_PATTERNS)])
            for i in range(SHORT_CONVS)
        ]
        rng.shuffle(convs)
        # Long conversations come last, smallest first, so the allocator is in
        # the same state for every seed when the largest mask is built: the
        # peak RSS then does not depend on the shuffle.
        convs += [long_conversation(rng, f"l{i}", n) for i, n in enumerate(LONG_SAMPLE_TOKENS)]
        self.ops = [_prep_op(conv, kinds) for conv, kinds in convs]
        self.warm_ops = self.ops[:50] + [_prep_op(*long_conversation(rng, "w", 2000))]


WORKLOADS = {"serve-paper": ServePaper, "decode-bench": DecodeBench, "prep-corpus": PrepCorpus}
