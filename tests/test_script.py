import copy
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apar.attention import linearize_script
from apar.engine import apar_decode, ar_decode
from apar.errors import ScriptMismatch
from apar.script import (
    ReplayModel,
    ScriptNode,
    ScriptTree,
    as_linear,
    flatten_script,
    lay_out,
    random_script,
    script_from_json,
    script_to_json,
)
from apar.sim import list_script
from apar.tokens import CHILD, EOS, FORK
from apar.tree import validate

sys.path.insert(0, str(Path(__file__).parent))
from oracles import ReferenceReplayModel, reference_linear  # noqa: E402


class TestReplay:
    def test_first_token(self, fig3_script):
        model = ReplayModel(fig3_script)
        assert model.next_token(["Q"], []) == "a1"

    def test_sibling_after_fork(self, fig3_script):
        model = ReplayModel(fig3_script)
        assert model.next_token(["Q", "a1", "a2", FORK], []) == "b1"

    def test_descend_after_child(self, fig3_script):
        model = ReplayModel(fig3_script)
        assert model.next_token(["Q", "a1", "a2", FORK, CHILD], []) == "d1"

    def test_emits_fork_when_content_done(self, fig3_script):
        model = ReplayModel(fig3_script)
        assert model.next_token(["Q", "a1", "a2"], []) == FORK

    def test_emits_eos_on_leaf_end(self, fig3_script):
        model = ReplayModel(fig3_script)
        assert model.next_token(["Q", "a1", "a2", FORK, CHILD, "d1", "d2"], []) == EOS

    def test_divergent_context_raises(self, fig3_script):
        model = ReplayModel(fig3_script)
        with pytest.raises(ScriptMismatch):
            model.next_token(["Q", "a1", "WRONG"], [])

    def test_wrong_prompt_raises(self, fig3_script):
        model = ReplayModel(fig3_script)
        with pytest.raises(ScriptMismatch):
            model.next_token(["X", "a1"], [])

    def test_token_after_eos_raises(self, fig3_script):
        model = ReplayModel(fig3_script)
        with pytest.raises(ScriptMismatch):
            model.next_token(["Q", "a1", "a2", FORK, "b1", EOS, "x"], [])


class TestLinear:
    def test_fig3_stream(self, fig3_script):
        model = as_linear(fig3_script)
        ctx, state = list(fig3_script.prompt), []
        out = []
        for _ in range(6):
            tok = model.next_token(ctx, state)
            out.append(tok)
            ctx.append(tok)
        assert out == ["a1", "a2", "d1", "d2", "b1", EOS]

    def test_never_emits_fork(self):
        for seed in range(20):
            script = random_script(seed, max_nodes=11)
            model = as_linear(script)
            ctx, state = list(script.prompt), []
            while True:
                tok = model.next_token(ctx, state)
                assert tok not in (FORK, CHILD)
                if tok == EOS:
                    break
                ctx.append(tok)

    def test_single_node_script(self):
        script = ScriptTree(
            root=0, nodes={0: ScriptNode(0, ("x", "y"))}, prompt=("p",)
        )
        model = as_linear(script)
        assert model.next_token(["p"], []) == "x"
        assert model.next_token(["p", "x"], []) == "y"
        assert model.next_token(["p", "x", "y"], []) == EOS


class TestRandomScript:
    def test_determinism(self):
        a = random_script(0, max_nodes=16, max_node_len=8)
        b = random_script(0, max_nodes=16, max_node_len=8)
        assert script_to_json(a) == script_to_json(b)

    def test_max_nodes_one_is_linear(self):
        script = random_script(5, max_nodes=1)
        assert len(script.nodes) == 1
        assert script.nodes[script.root].first_child is None

    def test_structural_validity_over_seeds(self):
        for seed in range(300):
            script = random_script(seed, max_nodes=13, max_node_len=6)
            sample, tree = linearize_script(script)
            assert validate(tree, {0: sample.tokens}) == [], seed

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            random_script(0, max_nodes=0)


def test_script_node_with_control_tokens_rejected():
    with pytest.raises(
        ValueError,
        match=r"script node 1 contains control tokens \['\[Fork\]', '\[EOS\]'\]",
    ):
        ScriptTree(
            root=0,
            nodes={
                0: ScriptNode(0, ("a",), first_child=1, next_sibling=2),
                1: ScriptNode(1, ("b", FORK, "c", EOS)),
                2: ScriptNode(2, ("d",)),
            },
            prompt=("Q",),
        )


def test_first_bad_script_node_named(fig3_script):
    # Node 1 breaks the pointer rule and node 2 holds a control token: the
    # check names node 1, the first in the script's node order.
    nodes = {
        0: ScriptNode(0, ("a",), first_child=1, next_sibling=2),
        1: ScriptNode(1, ("b",), first_child=2),
        2: ScriptNode(2, ("c", CHILD)),
    }
    with pytest.raises(ValueError, match="script node 1 has exactly 1 pointer"):
        ScriptTree(root=0, nodes=nodes, prompt=("Q",))
    nodes[1] = ScriptNode(1, ("b", EOS))
    with pytest.raises(ValueError, match=r"script node 1 contains control tokens \['\[EOS\]'\]"):
        ScriptTree(root=0, nodes=nodes, prompt=("Q",))
    payload = json.loads(script_to_json(ScriptTree(root=0, nodes={0: ScriptNode(0, ("a",))}, prompt=("Q",))))
    payload["nodes"][0]["tokens"] = ["a", FORK]
    with pytest.raises(ValueError, match="script node 0 contains control tokens"):
        script_from_json(json.dumps(payload))
    # Ids and pointers load only as JSON integers: True and 2.0 equal ids 1
    # and 2 as dict keys, so read as ids they would load and decode.
    for edit, message in [
        (
            lambda s: s["nodes"][1].update(id=True),
            "script nodes[1] id must be an integer, not true",
        ),
        (lambda s: s["nodes"][2].update(id=2.0), "script nodes[2] id must be an integer, not 2.0"),
        (
            lambda s: s["nodes"][0].update(first_child=[1]),
            "script node 0 first_child must be an integer, not [1]",
        ),
        (lambda s: s.update(root=False), "script root must be an integer, not false"),
    ]:
        payload = json.loads(script_to_json(fig3_script))
        edit(payload)
        with pytest.raises(ValueError) as raised:
            script_from_json(json.dumps(payload))
        assert str(raised.value) == message


def test_unreached_node_refused_by_every_walk():
    # Node 5 hangs off nothing: each walk names it instead of dropping it.
    script = ScriptTree(
        root=0,
        nodes={0: ScriptNode(0, ("a",)), 5: ScriptNode(5, ("lost", "words"))},
        prompt=("q",),
    )
    for walk in (lay_out, linearize_script, flatten_script, ReplayModel, as_linear):
        with pytest.raises(ValueError, match=r"script nodes \[5\] are not reached from the root"):
            walk(script)


def test_engine_tree_isomorphic_to_script():
    for seed in range(30):
        script = random_script(seed, max_nodes=11, max_node_len=5)
        result = apar_decode(list(script.prompt), ReplayModel(script))
        assert len(result.tree.nodes) == len(script.nodes), seed
        seqs = result.sequences_map()
        script_contents = sorted(n.tokens for n in script.nodes.values())
        engine_contents = []
        for node in result.tree.nodes.values():
            seq = seqs[node.seq]
            start, end = node.slice_bounds(len(seq))
            engine_contents.append(
                tuple(t for t in seq[start:end] if t not in (FORK, CHILD, EOS))
            )
        assert sorted(engine_contents) == script_contents, seed


def test_flatten_script_matches_linear_model(fig3_script):
    assert flatten_script(fig3_script) == ["a1", "a2", "d1", "d2", "b1"]


def test_json_round_trip(fig3_script):
    text = script_to_json(fig3_script)
    back = script_from_json(text)
    assert script_to_json(back) == text
    # Seeded random scripts and list scripts come back equal, node for node.
    scripts = [random_script(seed, max_nodes=21, max_node_len=6) for seed in range(40)]
    scripts += [list_script(items=k, detail_len=k % 4) for k in range(1, 9)]
    scripts.append(list_script(items=3, intro_len=0, head_len=0))
    for script in scripts:
        text = script_to_json(script)
        assert script_from_json(text) == script, text
        assert script_to_json(script_from_json(text)) == text


# Each model with the decode loop whose contexts it answers.
MODELS = {"replay": (ReplayModel, apar_decode), "linear": (as_linear, ar_decode)}


class CountingList(list):
    """A context that counts the positions read through indexing and slicing."""

    reads = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.reads += len(range(*key.indices(len(self))))
        else:
            self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("kind", sorted(MODELS))
class TestCursors:
    """The scan position a thread's state carries from one call to the next."""

    def test_matches_cold_model_on_grown_fresh_and_truncated_contexts(self, kind):
        make, decode = MODELS[kind]
        for seed in range(40):
            script = random_script(seed, max_nodes=11, max_node_len=5)
            plen = len(script.prompt)
            threads = decode(list(script.prompt), make(script)).sequences_map().values()
            for tokens in threads:
                model, state = make(script), []
                ctx = tokens[:plen]
                for tok in tokens[plen:-1]:
                    cold = make(script).next_token(list(ctx), [])
                    assert model.next_token(ctx, state) == cold, seed
                    assert model.next_token(list(ctx), []) == cold, seed
                    ctx.append(tok)
                for j in reversed(range(plen, len(ctx))):
                    del ctx[j:]
                    cold = make(script).next_token(list(ctx), [])
                    assert model.next_token(ctx, state) == cold, seed
                del ctx[plen - 1 :]
                with pytest.raises(ScriptMismatch):
                    model.next_token(ctx, state)

    def test_wrong_token_after_cursor_raises(self, kind, fig3_script):
        model = MODELS[kind][0](fig3_script)
        ctx, state = ["Q"], []
        for _ in range(3):
            ctx.append(model.next_token(ctx, state))
        model.next_token(ctx, state)
        assert state
        before = list(state)
        ctx.append("WRONG")
        with pytest.raises(ScriptMismatch):
            model.next_token(ctx, state)
        assert state == before  # a raising call does not write the state
        with pytest.raises(ScriptMismatch):
            model.next_token(ctx, state)
        del ctx[-1]
        model.next_token(ctx, state)
        ctx[2:] = ["WRONG"]  # truncated below the cursor, then diverged
        with pytest.raises(ScriptMismatch):
            model.next_token(ctx, state)

    def test_finished_context_raises_and_keeps_state(self, kind, fig3_script):
        model = MODELS[kind][0](fig3_script)
        ctx, state = ["Q"], []
        while (tok := model.next_token(ctx, state)) != EOS:
            ctx.append(tok)
        ctx.append(EOS)
        before = list(state)
        with pytest.raises(ScriptMismatch, match="finished context"):
            model.next_token(ctx, state)
        assert state == before
        ctx.append("x")
        with pytest.raises(ScriptMismatch, match="after"):
            model.next_token(ctx, state)

    # A decode changes no attribute of the model: it keeps no per-thread state.
    def test_decode_leaves_no_cursors(self, kind):
        make, decode = MODELS[kind]
        for seed in range(30):
            script = random_script(seed, max_nodes=13, max_node_len=6)
            model = make(script)
            built = copy.deepcopy(vars(model))
            result = decode(list(script.prompt), model)
            assert not result.trace.truncated
            assert vars(model) == built, seed

    @pytest.mark.parametrize(
        "cut", [{"max_seq_len": 8}, {"max_steps": 3}], ids=["max_seq_len", "max_steps"]
    )
    def test_truncated_decodes_leave_no_cursors(self, kind, cut):
        make, decode = MODELS[kind]
        script = random_script(5, max_nodes=13)
        model = make(script)
        built = copy.deepcopy(vars(model))
        for _ in range(3):
            assert decode(list(script.prompt), model, **cut).trace.truncated
            assert vars(model) == built

    def test_reads_per_call_do_not_grow_with_context(self, kind):
        detail = tuple(f"d{i}" for i in range(4100))
        script = ScriptTree(
            root=0,
            nodes={
                0: ScriptNode(0, ("r",), first_child=1, next_sibling=2),
                1: ScriptNode(1, detail),
                2: ScriptNode(2, ("s",)),
            },
            prompt=("q",),
        )
        model, state = MODELS[kind][0](script), []
        ctx = CountingList(script.prompt)
        reads = []
        while True:
            ctx.reads = 0
            tok = model.next_token(ctx, state)
            reads.append(ctx.reads)
            if tok == EOS:
                break
            ctx.append(tok)
            if tok == FORK:
                ctx.append(CHILD)  # follow the detail thread
        assert len(ctx) > 4000
        assert max(reads) <= 2
        ctx.reads = 0
        MODELS[kind][0](script).next_token(ctx, [])
        assert ctx.reads >= len(ctx)  # a cold model reads the whole context


# Each model kind with the node walker that states its layout rule again.
REFERENCES = {"replay": ReferenceReplayModel, "linear": reference_linear}


def _answer(model, context, state):
    """The model's answer, or ScriptMismatch when the call raises."""
    try:
        return model.next_token(context, state)
    except ScriptMismatch:
        return ScriptMismatch


def _cases(tokens, plen, pool):
    """Yield ``(context, cut)`` pairs to compare the models on.

    Each prefix of the thread comes with ``cut`` one token short of it.  Each
    one-token replacement, insertion or deletion at position j comes cut to
    end one or two tokens past j and at its own end, with ``cut`` = j.
    """
    for m in range(plen, len(tokens) + 1):
        yield tokens[:m], m - 1
    for j in range(len(tokens)):
        mutants = [tokens[:j] + tokens[j + 1 :]]
        for tok in pool:
            mutants.append(tokens[:j] + [tok] + tokens[j + 1 :])
            mutants.append(tokens[:j] + [tok] + tokens[j:])
        for ctx in mutants:
            for m in {j + 1, j + 2, len(ctx)}:
                yield ctx[:m], j


def _check_against_walker(kind, script, pool):
    make, decode = MODELS[kind]
    model, reference = make(script), REFERENCES[kind](script)
    for tokens in decode(list(script.prompt), model).sequences_map().values():
        for ctx, cut in _cases(tokens, len(script.prompt), pool):
            assert _answer(model, ctx, []) == _answer(reference, ctx, []), ctx
            state, ref_state = [], []
            # Resumed from the state each model leaves on ctx[:cut].
            _answer(model, ctx[:cut], state)
            _answer(reference, ctx[:cut], ref_state)
            assert _answer(model, ctx, state) == _answer(reference, ctx, ref_state), ctx


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(MODELS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_layout_cursor_matches_the_node_walker(kind, seed, data):
    script = random_script(seed, max_nodes=9, max_node_len=4)
    word = data.draw(st.sampled_from(sorted(set(flatten_script(script)))))
    _check_against_walker(kind, script, (FORK, CHILD, EOS, word, "zz"))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_layout_cursor_matches_the_node_walker_past_an_empty_forking_sibling(kind):
    # The main thread reads [Fork] [Fork]: its second node is empty and forks.
    script = ScriptTree(
        root=0,
        nodes={
            0: ScriptNode(0, ("a",), first_child=1, next_sibling=2),
            1: ScriptNode(1, ("d",)),
            2: ScriptNode(2, (), first_child=3, next_sibling=4),
            3: ScriptNode(3, ("e",)),
            4: ScriptNode(4, ("b",)),
        },
        prompt=("Q",),
    )
    _check_against_walker(kind, script, (FORK, CHILD, EOS, "a", "zz"))
