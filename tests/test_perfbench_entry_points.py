"""The benchmark under ``perfbench/`` still fits the program.

perfbench traces the program's functions by module and qualified name and
judges each operation's output with its own check.  A renamed function or a
changed output would otherwise surface only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402
from layers import SPANS, layer_values  # noqa: E402
from tracer import Tracer  # noqa: E402


def resolve(module: str, qualname: str):
    """The object the tracer wraps: the attribute in its owner's own namespace."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


@pytest.mark.parametrize("module, qualname", [(m, q) for _, m, q, _ in SPANS])
def test_traced_entry_point_exists(module, qualname):
    assert callable(resolve(module, qualname))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warm_up_ops_pass_their_checks(name):
    ops = workloads.WORKLOADS[name](seed=0).warm_ops
    assert ops
    for i, op in enumerate(ops):
        assert op.check(op.run()), f"{name} warm-up op {i}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_warm_up_ops_pass_their_checks(name):
    # The tracer's hooks unpack the wrapped calls' positional arguments, so
    # a changed signature would otherwise fail only in a traced run.
    ops = workloads.WORKLOADS[name](seed=0).warm_ops
    tracer = Tracer(SPANS)
    tracer.install()
    try:
        checks = [op.check(op.run()) for op in ops]
        layers = layer_values(tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert all(checks), name
    if name in ("serve-paper", "decode-bench"):
        assert layers["script.next_token_calls"][0] > 0
