"""Mutated input files exit 0 or 1, never 2 and never with a traceback.

Three surfaces read JSON: a script (``decode`` and ``bench``), a simulator
config (``simulate``) and a conversation corpus, one JSON object a line
(``extract``).  Each example takes a valid input and replaces or deletes up
to three of its values, with small bad values only: null, bools, zero,
negatives, NaN, infinities and values of the wrong JSON type.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_data import conversations  # noqa: E402

from apar.cli import main
from apar.script import ScriptNode, ScriptTree, script_to_json
from apar.sim import DEFAULT_COST

DELETE = object()
BAD_VALUES = [
    None, True, False, 0, -1, -7, 2.5, math.nan, math.inf, -math.inf,
    "x", "", [], [1], {}, {"a": 1}, DELETE,
]

SCRIPT = json.loads(script_to_json(ScriptTree(
    root=0,
    nodes={
        0: ScriptNode(0, ("a1", "a2"), first_child=1, next_sibling=2),
        1: ScriptNode(1, ("d1", "d2")),
        2: ScriptNode(2, ("b1",)),
    },
    prompt=("Q",),
    category="demo",
)))
CONFIG = {
    "mode": "apar",
    "cache_budget_fraction": 1.0,
    "capacity_blocks": 40,
    "block_size": 4,
    "concurrency_limit": 2,
    "sample_period": 3.0,
    "warmup_discard_fraction": 0.3,
    "cost": dict(DEFAULT_COST),
}
WORKLOADS = [
    {"kind": "list", "count": 2, "items": 2, "intro_len": 1, "head_len": 2, "detail_len": 3},
    {"kind": "random", "count": 2, "seed": 1, "max_nodes": 5, "max_node_len": 3},
]
# An ordered list, a paragraph answer and an unstructured one.
CONVERSATIONS = conversations()[::17]


def _paths(value, path=()):
    """The path to ``value`` and to every value inside it."""
    yield path
    if isinstance(value, dict):
        children = list(value.items())
    elif isinstance(value, list):
        children = list(enumerate(value))
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(data, doc, keep_root: bool):
    """``doc`` with one to three values replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        paths = [path for path in _paths(doc) if path or not keep_root]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(BAD_VALUES))
        if not path:
            doc = None if value is DELETE else copy.deepcopy(value)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def _assert_exits_0_or_1(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert rc in (0, 1), (rc, text)
    if rc == 1:
        assert "error:" in text
    assert "Traceback" not in text


@settings(max_examples=120, deadline=None)
@given(data=st.data(), command=st.sampled_from(["decode", "bench"]))
def test_mutated_script(data, command):
    doc = _mutated(data, SCRIPT, keep_root=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.json"
        path.write_text(json.dumps(doc))
        if command == "decode":
            argv = ["decode", "--script", str(path)]
        else:
            argv = ["bench", "--scripts", tmp, "--report", str(Path(tmp) / "r.csv")]
        _assert_exits_0_or_1(argv)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), workload=st.sampled_from(WORKLOADS))
def test_mutated_config(data, workload):
    doc = _mutated(data, {**CONFIG, "workload": workload}, keep_root=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        _assert_exits_0_or_1(
            ["simulate", "--config", str(path), "--report", str(Path(tmp) / "r.json")]
        )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_conversations(data):
    doc = _mutated(data, CONVERSATIONS, keep_root=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(conv) + "\n" for conv in doc))
        _assert_exits_0_or_1(["extract", "--input", str(path), "--output", str(Path(tmp) / "o")])
