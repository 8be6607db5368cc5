import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_data import CORPUS, EXPECTED_COUNTS  # noqa: E402
from oracles import (  # noqa: E402
    reference_parse_response,
    reference_prompt_text,
    reference_tokenize,
)

from apar import extract as extract_module
from apar import tree as tree_module
from apar.attention import build_loss_mask, build_training_mask
from apar.extract import (
    Conversation,
    _parse_response,
    assemble_with_ratio,
    build_training_sample,
    classify_response,
    corpus_stats,
    extract_conversation,
    extract_ordered_list,
    extract_paragraphs,
    tokenize,
)
from apar.script import ScriptTree
from apar.sim import list_script
from apar.tokens import CHILD, CONTROL_TOKENS, FORK, has_surface
from apar.tree import restore, validate


def to_conversation(entry):
    return Conversation(
        id=entry["id"],
        turns=[("user", entry["user"]), ("assistant", entry["assistant"])],
    )


LIST_TEXT = (
    "Intro:\n"
    "1. Cost: saves money over long time.\n"
    "2. Health: improves wellbeing every day.\n"
    "3. Time: reduces the daily commute a lot."
)


class TestOrderedList:
    def test_three_items_with_preamble(self):
        tree = extract_ordered_list(LIST_TEXT)
        assert tree is not None
        heads = [n for n in tree.nodes.values() if n.first_child is not None]
        leaves = [n for n in tree.nodes.values() if n.first_child is None and n.tokens]
        assert len(heads) == 4  # preamble plus three item heads
        assert len(leaves) == 3  # three details; terminators are empty
        root = tree.nodes[tree.root]
        assert root.tokens == ("Intro:",)

    def test_two_points_rejected(self):
        assert extract_ordered_list(
            "1. A: aaaaaaaaaaaa\n2. B: bbbbbbbbbbbb"
        ) is None

    def test_short_detail_rejected(self):
        assert extract_ordered_list(
            "1. A: aaaaaaaaaaaa\n2. B: bbbbbbbbbbbb\n3. C: too short"
        ) is None

    def test_continuation_lines_join_detail(self):
        tree = extract_ordered_list(
            "1. A: first part\nsecond part\n2. B: bbbbbbbbbbbb\n3. C: cccccccccccc"
        )
        detail = tree.nodes[tree.nodes[tree.root].first_child]
        assert detail.tokens == ("first", "part", "second", "part")

    def test_same_shape_as_list_script(self):
        # The training corpus and the serving workload share one list layout.
        def links(tree):
            return {nid: (n.first_child, n.next_sibling) for nid, n in tree.nodes.items()}

        answer = LIST_TEXT.split("\n", 1)[1]  # no preamble
        assert links(extract_ordered_list(answer)) == links(list_script(items=3))


class TestParagraphs:
    def test_two_three_sentence_paragraphs(self):
        text = (
            "One starts here. It continues. It ends.\n\n"
            "Two starts here. It also continues. Done."
        )
        tree = extract_paragraphs(text)
        heads = [n for n in tree.nodes.values() if n.first_child is not None]
        assert len(heads) == 2
        assert all(tree.nodes[h.first_child].tokens for h in heads)

    def test_single_sentence_paragraph_absent(self):
        assert extract_paragraphs("Just one sentence here.") is None

    def test_mixed_single_then_splittable(self):
        text = "Short one.\n\nLong one starts. And continues properly."
        tree = extract_paragraphs(text)
        heads = [n for n in tree.nodes.values() if n.first_child is not None]
        assert len(heads) == 1
        head = heads[0]
        assert head.tokens == ("Short", "one.", "Long", "one", "starts.")
        assert tree.nodes[head.first_child].tokens == ("And", "continues", "properly.")


class TestClassify:
    def test_code_fence_unstructured(self):
        assert classify_response("look:\n```python\nprint(1)\n```") == "unstructured"

    def test_valid_list(self):
        assert classify_response(LIST_TEXT) == "ordered_list"

    def test_plain_paragraphs(self):
        assert classify_response(
            "First sentence here. Second sentence too."
        ) == "paragraph"

    def test_corpus_hand_labels(self):
        for entry in CORPUS:
            assert classify_response(entry["assistant"]) == entry["kind"], entry["id"]

    def test_negative_fixtures_rejected_as_lists(self):
        negatives = [e for e in CORPUS if e["not_list"]]
        assert negatives
        for entry in negatives:
            assert extract_ordered_list(entry["assistant"]) is None, entry["id"]


class TestBuildSample:
    def test_each_answer_parsed_once(self, monkeypatch):
        calls = {}
        for name in ("extract_ordered_list", "extract_paragraphs"):
            def counted(text, _name=name, _parse=getattr(extract_module, name)):
                calls[_name] += 1
                return _parse(text)

            monkeypatch.setattr(extract_module, name, counted)
        structured = [e for e in CORPUS if e["kind"] != "unstructured"]
        assert structured
        for entry in structured:
            calls.update(extract_ordered_list=0, extract_paragraphs=0)
            sample = build_training_sample(to_conversation(entry), 1)
            assert sample.kind == entry["kind"], entry["id"]
            assert max(calls.values()) == 1, (entry["id"], calls)

    def test_one_script_tree_per_sample(self, monkeypatch):
        built = []
        post_init = ScriptTree.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ScriptTree, "__post_init__", counted)
        assert {e["kind"] for e in CORPUS} == set(EXPECTED_COUNTS)
        for entry in CORPUS:
            built.clear()
            sample = build_training_sample(to_conversation(entry), 1)
            assert sample.kind == entry["kind"], entry["id"]
            assert len(built) == 1, (entry["id"], len(built))

    def test_one_preorder_walk_per_sample(self, monkeypatch):
        # Extracting a sample and building both its masks calls preorder
        # once, in the layout; the training mask walks the tree itself, in
        # whatever order its nodes are stored, and the same mask comes from
        # the tree stored in reverse.
        walks = []
        walk = tree_module.preorder

        def counted(root, nodes):
            walks.append(root)
            return walk(root, nodes)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "apar"]:
            if getattr(module, "preorder", None) is walk:
                monkeypatch.setattr(module, "preorder", counted)
        conversations = [to_conversation(e) for e in CORPUS]
        conversations.append(Conversation("long", [("user", "why"), ("assistant", LIST_TEXT)] * 3))
        samples = 0
        for conv in conversations:
            for _, sample in extract_conversation(conv):
                mask = build_training_mask(sample.sample, sample.tree)
                build_loss_mask(sample.sample)
                reverse = dict(reversed(sample.tree.nodes.items()))
                reversed_tree = dataclasses.replace(sample.tree, nodes=reverse)
                assert build_training_mask(sample.sample, reversed_tree).tobytes() == (
                    mask.tobytes()
                )
                samples += 1
        assert samples == len(CORPUS) + 3
        assert len(walks) == samples

    def test_unstructured_has_no_forks(self):
        conv = Conversation("c", [("user", "hi"), ("assistant", "Short answer")])
        sample = build_training_sample(conv, 1)
        assert sample.kind == "unstructured"
        assert FORK not in sample.sample.tokens
        blocked = [
            i for i in range(len(sample.sample.tokens)) if not sample.loss_mask[i]
        ]
        assert blocked == list(range(sample.sample.prompt_len))

    def test_list_sample_fork_child_pairs(self):
        conv = Conversation("c", [("user", "why bike"), ("assistant", LIST_TEXT)])
        sample = build_training_sample(conv, 1)
        assert sample.kind == "ordered_list"
        forks = sample.sample.tokens.count(FORK)
        childs = sample.sample.tokens.count(CHILD)
        assert forks == childs == 4  # preamble present: one pair per forking node

    def test_list_sample_without_preamble_has_three_pairs(self):
        text = "\n".join(LIST_TEXT.split("\n")[1:])
        conv = Conversation("c", [("user", "why bike"), ("assistant", text)])
        sample = build_training_sample(conv, 1)
        assert sample.sample.tokens.count(FORK) == 3

    def test_round_trip_structured_samples(self):
        for entry in CORPUS:
            if entry["kind"] == "unstructured":
                continue
            conv = to_conversation(entry)
            sample = build_training_sample(conv, 1)
            restored = restore(sample.tree, {0: sample.sample.tokens})
            assert " ".join(restored) == " ".join(entry["assistant"].split()), entry["id"]

    def test_every_tree_validates(self):
        for entry in CORPUS:
            conv = to_conversation(entry)
            sample = build_training_sample(conv, 1)
            assert validate(sample.tree, {0: sample.sample.tokens}) == [], entry["id"]

    def test_non_assistant_turn_rejected(self):
        conv = Conversation("c", [("user", "hi"), ("assistant", "yo")])
        with pytest.raises(ValueError):
            build_training_sample(conv, 0)

    def test_record_schema(self):
        conv = to_conversation(CORPUS[0])
        sample = build_training_sample(conv, 1)
        record = sample.to_record(conv.id, 1)
        assert set(record) == {
            "id", "turn", "kind", "prompt_text", "prompt_len",
            "tokens", "node_of", "loss_mask", "tree",
        }
        assert len(record["tokens"]) == len(record["node_of"]) == len(record["loss_mask"])


class TestCorpusLevel:
    def test_stats_counts(self):
        labeled = []
        for entry in CORPUS:
            conv = to_conversation(entry)
            for _, sample in extract_conversation(conv):
                labeled.append((conv.id, sample))
        stats = corpus_stats(labeled)
        assert stats["samples"] == 50
        assert stats["counts"] == EXPECTED_COUNTS
        assert stats["structured_ratio"] == pytest.approx(31 / 50)

    def test_ratio_assembly(self):
        labeled = []
        for entry in CORPUS[:10] + CORPUS[31:35]:
            conv = to_conversation(entry)
            labeled.extend(
                (conv.id, sample) for _, sample in extract_conversation(conv)
            )
        kinds = [s.kind for _, s in labeled]
        assert kinds.count("unstructured") == 4 and len(labeled) == 14
        kept = assemble_with_ratio(labeled, (1, 1), seed=0)
        assert len(kept) == 8
        kept_kinds = [s.kind for _, s in kept]
        assert kept_kinds.count("unstructured") == 4
        again = assemble_with_ratio(labeled, (1, 1), seed=0)
        assert [cid for cid, _ in again] == [cid for cid, _ in kept]

    @pytest.mark.parametrize("ratio", [(0, 1), (1, 0), (-2, 3)])
    def test_ratio_parts_must_be_positive(self, ratio):
        with pytest.raises(ValueError, match="ratio parts must be positive"):
            assemble_with_ratio([], ratio)

    def test_roles_must_alternate(self):
        with pytest.raises(ValueError):
            Conversation("bad", [("assistant", "hi")])

    def test_control_surfaces_in_text_escaped(self):
        conv = Conversation(
            "c", [("user", "echo"), ("assistant", "literal [Fork] stays text")]
        )
        sample = build_training_sample(conv, 1)
        assert sample.kind == "unstructured"
        assert FORK not in sample.sample.tokens


def test_tokenize_escapes_reserved():
    assert tokenize("a [Fork] b") == ["a", "\\[Fork]", "b"]


def test_tokenize_without_control_surfaces_is_split():
    text = " 1. Fork:  [fork] [Fork]x\tEOS [EOS.\n"
    assert tokenize(text) == text.split()


PARAGRAPH_TEXT = (
    "Cycling is cheap. It costs little to run.\n\n"
    "It is healthy too. You move every day."
)


def _surface_texts():
    """Each control surface as a whole word, embedded in a word or escaped,
    spliced into a list, into paragraphs and into plain text; each surface
    alone and at the text's very ends; and the three texts with no surface
    at all."""
    bases = [LIST_TEXT, PARAGRAPH_TEXT, "plain words only"]
    yield from bases
    for surface in sorted(CONTROL_TOKENS):
        yield surface
        for base in bases:
            yield f"{surface} {base}"
            yield f"{base} {surface}"
        forms = [
            f" {surface} ", f"x{surface}y", f"{surface}:", f"\\{surface}", f"\n{surface}\n"
        ]
        for base in bases:
            for form in forms:
                yield form + base
                yield base.replace("money", f"money{form}").replace("cheap", f"cheap{form}")
                yield base + form


@pytest.mark.parametrize("source", ["surfaces", "corpus"])
def test_control_precheck_matches_full_split(source):
    texts = _surface_texts() if source == "surfaces" else (e["assistant"] for e in CORPUS)
    for text in texts:
        assert tokenize(text) == reference_tokenize(text), text
        assert _parse_response(text) == reference_parse_response(text), text


def _multi_turn_conversations():
    """Every corpus dialog, and dialogs of several turns whose earlier turns
    hold each control surface as a whole word and inside a word."""
    yield from (to_conversation(e) for e in CORPUS)
    for surface in sorted(CONTROL_TOKENS):
        asks = [f"why {surface} so", f"x{surface}y and {surface}:", f"  {surface}\n", ""]
        answers = [f"Short {surface} answer", LIST_TEXT, f"a{surface} b", PARAGRAPH_TEXT]
        turns = [t for ask, answer in zip(asks, answers) for t in (("user", ask), ("assistant", answer))]
        yield Conversation(f"multi{surface}", turns)
    turns = [t for e in CORPUS for t in (("user", e["user"]), ("assistant", e["assistant"]))]
    yield Conversation("whole-corpus", turns)


def test_each_prompt_is_its_prompt_text_tokenized():
    # extract_conversation splits each turn once for every later prompt:
    # each sample's prompt is its prompt text tokenized, and the sample is
    # the one build_training_sample builds for its turn alone.
    samples = 0
    for conv in _multi_turn_conversations():
        for i, sample in extract_conversation(conv):
            text = reference_prompt_text(conv, i)
            assert sample.prompt_text == text
            prompt = sample.sample.tokens[: sample.sample.prompt_len]
            assert tuple(prompt) == tuple(tokenize(text)), (conv.id, i)
            expected = build_training_sample(conv, i).to_record(conv.id, i)
            assert sample.to_record(conv.id, i) == expected
            samples += 1
    assert samples == 2 * len(CORPUS) + 4 * len(CONTROL_TOKENS)


# Pieces of responses: words, the characters of the control surfaces apart
# (they join into a surface only where they fall in order), the breaks the
# parsers cut at, and surfaces inside a word, one right after a head's
# colon.  Words are drawn most often.  Whole-word surfaces and the forms
# that leave a response unstructured end some texts.
_WORDS = [
    "Cost", " saves money", " over time", "x", "12", ".", "!", "?", " ", "\t",
    "[", "]", "Fork", "Child", "EOS",
] * 3
_BREAKS = ["\n", "\n\n", "\n\n\n", "\r", ":", "\n2. "]
_IN_WORD = ["x[EOS]", "[Child]:", ":[Fork]"]
_ENDS = ["```", "$x$", "\\(", "\\[", "https://x", " [Fork]", " [EOS] x", "\n[Child]"]


def _responses(pieces, ends=("",), colons=(": ", ":", ":\t")):
    """Texts shaped as a numbered list, as blank-line paragraphs, or free,
    built from ``pieces``, each ended by one of ``ends``; ``colons`` end
    an item's head."""
    run = st.lists(st.sampled_from(pieces), min_size=1, max_size=8).map("".join)
    one_line = [piece for piece in pieces if "\n" not in piece]
    head = st.lists(st.sampled_from(one_line), min_size=1, max_size=6).map("".join)
    detail = st.tuples(run, st.sampled_from(["", " with more words", " and more words"]))
    item = st.tuples(st.integers(1, 12), head, st.sampled_from(colons), detail).map(
        lambda t: f"{t[0]}. {t[1]}{t[2]}{''.join(t[3])}"
    )
    listed = st.tuples(run, st.lists(st.one_of(item, item, item, run), min_size=3, max_size=6))
    paragraphs = st.lists(st.tuples(run, run).map(". ".join), min_size=1, max_size=4)
    free = st.lists(st.sampled_from(pieces), max_size=40).map("".join)
    texts = listed.map(lambda t: "\n".join([t[0], *t[1]])) | paragraphs.map("\n\n".join) | free
    return st.tuples(texts, st.sampled_from(ends)).map("".join)


@settings(max_examples=250, deadline=None)
@given(
    _responses(
        _WORDS + _BREAKS + _IN_WORD,
        ("",) * 2 * len(_ENDS) + tuple(_ENDS),
        # A detail glued to its head's colon starts with a whole-word
        # surface that the text holds only inside a word.
        (": ", ":", ":\t", ":[Fork] ", ":[EOS]"),
    )
)
def test_parse_matches_the_reference_on_drawn_responses(text):
    assert _parse_response(text) == reference_parse_response(text)


@settings(max_examples=250, deadline=None)
@given(_responses(_WORDS + _BREAKS).filter(lambda text: not has_surface(text)))
def test_parts_of_a_response_without_a_surface_need_no_escaping(text):
    # Every head, detail, preamble and tail the parsers cut from a response
    # with no control surface: its plain split is its tokenize.
    parts = []

    def recording(_text):
        def split(part):
            parts.append(part)
            return part.split()

        return split

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extract_module, "_splitter", recording)
        trees = [extract_ordered_list(text), extract_paragraphs(text)]
    assert extract_module._splitter(text) is str.split
    assert trees == [extract_ordered_list(text), extract_paragraphs(text)]
    for part in parts:
        assert part.split() == tokenize(part), part
