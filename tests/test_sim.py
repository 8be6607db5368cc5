import copy
import hashlib
import json
import random
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apar import engine, sim
from apar.blocks import KvBlockPool
from apar.engine import apar_step
from apar.errors import SimulationError, SimulationInvariantError
from apar.runtime import SequenceGroup, new_group
from apar.script import (
    ReplayModel,
    ScriptNode,
    ScriptTree,
    as_linear,
    flatten_script,
    random_script,
    script_to_json,
)
from apar.sim import (
    SimConfig,
    StepCostModel,
    config_from_json,
    default_config,
    list_script,
    run_simulation,
)
from apar.tokens import CONTROL_TOKENS

sys.path.insert(0, str(Path(__file__).parent))
from oracles import reference_simulation, step_block_demand  # noqa: E402


def constant_cost(t_fixed=0.01):
    return StepCostModel(t_fixed=t_fixed, c_token=0.0, c_attn=0.0)


def long_linear_script(n=400, prompt=("p", "q")):
    return ScriptTree(
        root=0,
        nodes={0: ScriptNode(0, tuple(f"w{i}" for i in range(n)))},
        prompt=prompt,
    )


class TestStepLatency:
    def test_memory_bound_limit(self):
        model = StepCostModel(t_fixed=0.02, c_token=0.0, c_attn=0.0)
        assert model.latency(2, 1000) == pytest.approx(0.02)

    def test_attention_term(self):
        model = StepCostModel(t_fixed=0.0, c_token=0.0, c_attn=1e-6)
        assert model.latency(1, 1000) == pytest.approx(1e-3)

    def test_fewer_attended_is_cheaper(self):
        model = StepCostModel(t_fixed=0.01, c_token=1e-4, c_attn=1e-6)
        assert model.latency(4, 100) < model.latency(4, 200)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            StepCostModel(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_constants_rejected(self, value, position):
        constants = [0.0, 0.0, 0.0]
        constants[position] = value
        with pytest.raises(ValueError, match="finite"):
            StepCostModel(*constants)


class TestSingleRequest:
    def test_throughput_is_inverse_step_cost(self):
        script = long_linear_script(400)
        config = SimConfig(
            workload=[script],
            mode="ar",
            capacity_blocks=64,
            cost=constant_cost(0.01),
            sample_period=1.0,
        )
        report = run_simulation(config)
        # 400 content tokens in 401 constant steps
        assert report.summary["throughput"] == pytest.approx(1 / 0.01, rel=0.05)
        assert report.summary["completed"] == 1

    def test_conservation(self):
        workload = [list_script(items=3, detail_len=12) for _ in range(8)]
        config = SimConfig(
            workload=workload, mode="apar", capacity_blocks=48, cost=constant_cost()
        )
        report = run_simulation(config)
        assert report.summary["completed"] == 8
        expected = sum(len(flatten_script(s)) for s in workload)
        assert report.summary["completed_content"] == expected


class TestPoolDiscipline:
    def test_blocks_never_exceed_capacity(self):
        config = SimConfig(
            workload=[list_script() for _ in range(20)],
            mode="apar",
            capacity_blocks=60,
            cost=constant_cost(),
        )
        report = run_simulation(config)
        assert report.summary["peak_blocks"] <= config.effective_blocks
        assert report.summary["completed"] == 20

    def test_preemption_requeues_and_completes(self):
        config = SimConfig(
            workload=[list_script() for _ in range(12)],
            mode="apar",
            capacity_blocks=40,
            cost=constant_cost(),
        )
        report = run_simulation(config)
        assert report.summary["preemptions"] > 0
        assert report.summary["completed"] == 12

    @pytest.mark.parametrize("mode", ["apar", "ar"])
    def test_one_model_per_distinct_script_and_none_outlives_the_run(
        self, monkeypatch, mode
    ):
        # Twelve equal scripts, preempted and admitted again, are decoded
        # once; a second run decodes them again, since nothing is cached
        # across calls.  The model keeps no state of its own: decoding
        # changes none of its attributes.
        built = []

        def collecting(make):
            def build(script):
                model = make(script)
                built.append((model, copy.deepcopy(vars(model))))
                return model

            return build

        monkeypatch.setattr(sim, "ReplayModel", collecting(ReplayModel))
        monkeypatch.setattr(sim, "as_linear", collecting(as_linear))
        config = SimConfig(
            workload=[list_script() for _ in range(12)],
            mode=mode,
            capacity_blocks=40,
            cost=constant_cost(),
        )
        report = run_simulation(config)
        assert report.summary["preemptions"] > 0
        assert report.summary["completed"] == 12
        assert len(built) == 1
        run_simulation(config)
        assert len(built) == 2
        assert all(vars(model) == attributes for model, attributes in built)

    def test_unschedulable_prompt(self):
        script = ScriptTree(
            root=0,
            nodes={0: ScriptNode(0, ("x",))},
            prompt=tuple(f"p{i}" for i in range(64)),
        )
        config = SimConfig(workload=[script], capacity_blocks=4, cost=constant_cost())
        with pytest.raises(SimulationError):
            run_simulation(config)

    def test_single_oversized_request(self):
        config = SimConfig(
            workload=[list_script(items=8, detail_len=60)],
            mode="apar",
            capacity_blocks=8,
            cost=constant_cost(),
        )
        with pytest.raises(SimulationError):
            run_simulation(config)


class TestEndOfRunChecks:
    def test_leaked_block_is_an_error(self, monkeypatch):
        release = KvBlockPool.release_sequence
        leaked = []

        def leaky_release(self, start, end):
            if not leaked:
                leaked.append(start)
                start += self.block_size  # the run's first block: nobody frees it
            return release(self, start, end)

        monkeypatch.setattr(KvBlockPool, "release_sequence", leaky_release)
        config = SimConfig(
            workload=[list_script() for _ in range(4)],
            mode="apar",
            capacity_blocks=200,
            cost=constant_cost(),
        )
        with pytest.raises(SimulationError, match="1 blocks still held"):
            run_simulation(config)
        assert leaked

    def test_content_miscount_is_an_error(self, monkeypatch):
        # Counting one content token of every request as control loses 4 of
        # the 4 x 184 tokens the workload flattens to.
        monkeypatch.setattr(engine, "CONTROL_TOKENS", CONTROL_TOKENS | {"d0_0"})
        config = SimConfig(
            workload=[list_script() for _ in range(4)],
            mode="apar",
            capacity_blocks=200,
            cost=constant_cost(),
        )
        with pytest.raises(
            SimulationInvariantError,
            match="732 content tokens completed of the workload's 736",
        ):
            run_simulation(config)

    def test_invalid_profile_tree_is_an_error(self, monkeypatch):
        fork = SequenceGroup.fork_sequence

        def unlinking_fork(group, parent_id):
            # Fork, then drop the forked node's pointer to its continuation:
            # the decode goes on, but the tree is invalid.
            child_id = fork(group, parent_id)
            forked = group._parents[group.live[parent_id].current_node]
            group.tree.nodes[forked].next_sibling = None
            return child_id

        monkeypatch.setattr(SequenceGroup, "fork_sequence", unlinking_fork)
        config = SimConfig(
            workload=[list_script() for _ in range(2)],
            mode="apar",
            capacity_blocks=200,
            cost=constant_cost(),
        )
        with pytest.raises(SimulationInvariantError, match="exactly 1 pointer"):
            run_simulation(config)

    def test_profile_restoring_other_content_is_an_error(self, monkeypatch):
        # A model replaying a script of the same shape with other tokens
        # decodes a valid tree with the right number of content tokens.
        def renamed(script):
            nodes = {
                nid: replace(node, tokens=tuple(t.upper() for t in node.tokens))
                for nid, node in script.nodes.items()
            }
            return ReplayModel(replace(script, nodes=nodes))

        monkeypatch.setattr(sim, "ReplayModel", renamed)
        config = SimConfig(
            workload=[list_script() for _ in range(2)],
            mode="apar",
            capacity_blocks=200,
            cost=constant_cost(),
        )
        with pytest.raises(
            SimulationInvariantError,
            match="restored 184 content tokens that differ from its script's",
        ):
            run_simulation(config)


def test_peak_is_reached_within_a_step_in_live_order():
    """Three requests on 19 blocks, one preemption.  The pool peaks at 15
    blocks inside a step: every count at a step's end is at most 14, and
    stepping the live groups in reverse order would peak at 16."""
    config = SimConfig(
        workload=[random_script(seed, max_nodes=8, max_node_len=4) for seed in (155, 145, 300)],
        mode="apar",
        capacity_blocks=19,
        block_size=3,
        concurrency_limit=3,
    )
    summary = run_simulation(config).summary
    assert summary["preemptions"] == 1
    assert summary["peak_blocks"] == 15
    assert reference_simulation(config).summary == summary


# Random workloads of 1-12 random_scripts on small pools.
random_runs = given(
    seeds=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
    capacity=st.integers(min_value=2, max_value=40),
    block_size=st.integers(min_value=1, max_value=4),
    concurrency=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(["apar", "ar"]),
)


@settings(max_examples=300, deadline=None)
@random_runs
def test_random_workload_completes_or_is_refused(
    seeds, capacity, block_size, concurrency, mode
):
    """A run either refuses a config it cannot schedule, or completes every
    request with exactly the workload's flattened content."""
    workload = [random_script(seed) for seed in seeds]
    config = SimConfig(
        workload=workload,
        mode=mode,
        capacity_blocks=capacity,
        block_size=block_size,
        concurrency_limit=concurrency,
    )
    try:
        report = run_simulation(config)
    except SimulationError as exc:
        assert not isinstance(exc, SimulationInvariantError), exc
        return
    assert report.summary["completed"] == len(workload)
    expected = sum(len(flatten_script(s)) for s in workload)
    assert report.summary["completed_content"] == expected


def _outcome(simulate, config: SimConfig):
    """The report's bytes, or the type and message of the SimulationError."""
    try:
        report = simulate(config)
    except SimulationError as exc:
        return type(exc), str(exc)
    return report.to_json(), report.to_csv()


@settings(max_examples=300, deadline=None)
@random_runs
def test_random_workload_matches_the_engine_in_the_loop(
    seeds, capacity, block_size, concurrency, mode
):
    """Scheduling from step profiles gives the bytes, or the refusal, of
    decoding every admission with the engine on the shared pool."""
    config = SimConfig(
        workload=[random_script(seed) for seed in seeds],
        mode=mode,
        capacity_blocks=capacity,
        block_size=block_size,
        concurrency_limit=concurrency,
    )
    assert _outcome(run_simulation, config) == _outcome(reference_simulation, config)


@pytest.mark.parametrize("block_size", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("make_model", [ReplayModel, as_linear], ids=["apar", "ar"])
def test_profile_demand_is_the_walked_demand(make_model, block_size):
    """A profile counts each step's allocations after the step; the oracle
    reads them off the live threads before it.  Both give the demand the
    scheduler reserves before every step, and none after the last."""
    for seed in range(60):
        script = random_script(seed, max_nodes=21, max_node_len=6, prompt_len=1 + seed % 5)
        profile = sim._Profile(script, make_model, block_size)
        group = new_group(list(script.prompt), KvBlockPool(block_size=block_size))
        model = make_model(script)
        walked = [step_block_demand(group)]
        while group.live:
            apar_step(group, model)
            walked.append(step_block_demand(group))
        assert profile.rows[:, sim.ALLOC].tolist() + [0] == walked, seed


class TestSharedProfiles:
    @pytest.mark.parametrize("mode", ["apar", "ar"])
    def test_repeated_script_objects(self, mode):
        a, b = random_script(1), random_script(2)
        config = SimConfig(
            workload=[a, b, a, a, b, a, b, b],
            mode=mode,
            capacity_blocks=16,
            block_size=1,
            concurrency_limit=4,
            sample_period=0.1,
        )
        outcome = _outcome(run_simulation, config)
        assert json.loads(outcome[0])["summary"]["preemptions"] > 0
        assert outcome == _outcome(reference_simulation, config)

    @pytest.mark.parametrize("mode", ["apar", "ar"])
    def test_equal_content_distinct_objects(self, mode):
        workload = [list_script(items=3, detail_len=9 + i % 2) for i in range(10)]
        assert workload[0] == workload[2] and workload[0] is not workload[2]
        config = SimConfig(
            workload=workload,
            mode=mode,
            capacity_blocks=30,
            block_size=3,
            concurrency_limit=5,
            sample_period=0.1,
        )
        outcome = _outcome(run_simulation, config)
        assert json.loads(outcome[0])["summary"]["preemptions"] > 0
        assert outcome == _outcome(reference_simulation, config)


class TestQuartiles:
    """The window and summary quartiles are numpy's default percentiles,
    float for float, computed without numpy."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_numpy_percentile(self, seed):
        rng = random.Random(seed)
        for length in range(1, 201):
            scale = 10 ** rng.uniform(-6, 3)
            values = [rng.random() * scale for _ in range(length)]
            # Ties: repeat some values, or draw from a few.
            if length % 3 == 0:
                values = [rng.choice(values[: max(1, length // 4)]) for _ in values]
            expected = tuple(float(x) for x in np.percentile(values, (25, 75)))
            assert sim._quartiles(values) == expected, (seed, length)

    def test_empty_window_reports_zero(self):
        # One 400-step request at 0.01 s a step completes after about 4 s:
        # the half-second windows before it hold no completion.
        config = SimConfig(
            workload=[long_linear_script(400)],
            mode="ar",
            capacity_blocks=64,
            cost=constant_cost(0.01),
            sample_period=0.5,
        )
        samples = run_simulation(config).samples
        empty = [s for s in samples if s.time < 4.0]
        assert len(empty) == 7
        for s in empty:
            assert (s.latency_mean, s.latency_p25, s.latency_p75) == (0.0, 0.0, 0.0)
        assert any(s.latency_mean > 0 for s in samples)

    def test_summary_falls_back_to_every_latency(self):
        # At zero step cost every request completes at time 0, no later than
        # the kept windows' start, so the summary takes every completion.
        config = config_from_json(
            '{"cost": {"t_fixed": 0, "c_token": 0, "c_attn": 0},'
            ' "workload": {"kind": "list", "count": 4}}'
        )
        summary = run_simulation(config).summary
        assert (summary["samples_kept"], summary["completed"]) == (1, 4)
        latency = {k: v for k, v in summary.items() if k.startswith("latency")}
        assert latency == {"latency_mean": 0.0, "latency_p25": 0.0, "latency_p75": 0.0}


# sha256 of to_json() and to_csv() of default_config(mode, copies=1000).
PAPER_SCALE_DIGESTS = {
    "apar": (
        "aefe98faf42e0262eb4f3b4389446cc9cbe1e521dcd4ac2b41cbb7c95f906671",
        "4a2379a3e8937154ff84b5daa4b1f8f599b1ccc0cbb9050590046d93f845b812",
    ),
    "ar": (
        "9a2054ed6fae7c80dbf259299dc61c6dbf7df584ecdf54b1aebf35b29f2e81f5",
        "df7819afbb0bfac6bd4592272a84d979bb81d8c3370f8b8000701d81389f306a",
    ),
}


@pytest.mark.parametrize("mode", ["apar", "ar"])
def test_paper_scale_run(mode):
    """The paper's serving scale: 1000 queued, 350 concurrent, full budget."""
    config = default_config(mode, copies=1000)
    report = run_simulation(config)
    summary = report.summary
    assert summary["completed"] == 1000
    assert summary["preemptions"] == 4950
    assert summary["completed_content"] == sum(
        len(flatten_script(s)) for s in config.workload
    )
    assert summary["peak_blocks"] <= config.effective_blocks == 600
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (report.to_json(), report.to_csv())
    )
    assert digests == PAPER_SCALE_DIGESTS[mode]


@pytest.mark.parametrize("mode", ["apar", "ar"])
def test_paper_scale_run_matches_the_engine_in_the_loop(mode):
    """At the paper's serving scale, scheduling from step profiles gives the
    bytes of decoding every admission with the engine on the shared pool:
    a witness the program did not record, beside the pinned digests."""
    config = default_config(mode, copies=1000)
    assert _outcome(run_simulation, config) == _outcome(reference_simulation, config)


class TestDeterminismAndSweep:
    def test_identical_runs(self):
        config = default_config(mode="apar", copies=12)
        a = run_simulation(config)
        b = run_simulation(default_config(mode="apar", copies=12))
        assert a.to_json() == b.to_json()

    def test_budget_sweep_monotone_steady_throughput(self):
        workload = [
            list_script(
                items=3 + i % 5,
                detail_len=18 + (i * 7) % 25,
                head_len=4 + i % 4,
            )
            for i in range(60)
        ]
        budgets = [0.2, 0.4, 0.6, 0.8]
        for mode in ("apar", "ar"):
            base = SimConfig(workload=workload, mode=mode, concurrency_limit=24)
            reports = {
                b: run_simulation(replace(base, cache_budget_fraction=b)) for b in budgets
            }
            tputs = [reports[b].summary["steady_throughput"] for b in budgets]
            for lo, hi in zip(tputs, tputs[1:]):
                assert hi >= lo - 1e-9, (mode, tputs)

    def test_latency_nondecreasing_in_concurrency(self):
        # compute-bound model: attention dominates step cost
        cost = StepCostModel(t_fixed=0.001, c_token=0.0, c_attn=5e-5)
        workload = [list_script() for _ in range(30)]
        lat = []
        for limit in (2, 6, 12):
            config = SimConfig(
                workload=workload,
                mode="apar",
                capacity_blocks=800,
                concurrency_limit=limit,
                cost=cost,
            )
            lat.append(run_simulation(config).summary["latency_mean"])
        assert lat[0] <= lat[1] <= lat[2]


class TestConfigIO:
    def test_defaults(self):
        config = default_config()
        assert config.mode == "apar"
        assert len(config.workload) == 100
        assert config.concurrency_limit == 35

    def test_from_json(self):
        text = """
        {"mode": "ar", "cache_budget_fraction": 0.5,
         "capacity_blocks": 128, "concurrency_limit": 10,
         "cost": {"t_fixed": 0.01, "c_token": 0.0, "c_attn": 0.0},
         "workload": {"kind": "list", "count": 3, "items": 4}}
        """
        config = config_from_json(text)
        assert config.mode == "ar"
        assert config.effective_blocks == 64
        assert len(config.workload) == 3

    def test_defaults_come_from_simconfig(self):
        # A key the config leaves out keeps SimConfig's own default.
        config = config_from_json("{}")
        expected = SimConfig(workload=[list_script()] * 100)
        for f in fields(SimConfig)[1:]:
            assert getattr(config, f.name) == getattr(expected, f.name), f.name

    @pytest.mark.parametrize(
        "key, value",
        [
            ("cache_budget_fraction", 1),
            ("capacity_blocks", 700),
            ("block_size", 8),
            ("concurrency_limit", 20),
            ("sample_period", 2),
            ("warmup_discard_fraction", 0),
        ],
    )
    def test_numbers_take_their_field_type(self, key, value):
        config = config_from_json(json.dumps({key: value}))
        default = getattr(SimConfig(workload=[list_script()]), key)
        assert getattr(config, key) == value
        assert type(getattr(config, key)) is type(default)

    def test_cost_numbers_are_floats(self):
        config = config_from_json('{"cost": {"t_fixed": 1, "c_token": 0, "c_attn": 2}}')
        assert config.cost == StepCostModel(1.0, 0.0, 2.0)
        assert all(type(getattr(config.cost, f.name)) is float for f in fields(StepCostModel))

    def test_random_workload(self):
        config = config_from_json(
            '{"workload": {"kind": "random", "count": 5, "seed": 3}}'
        )
        assert len(config.workload) == 5

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SimConfig(workload=[list_script()], mode="turbo")

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            SimConfig(workload=[list_script()], cache_budget_fraction=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("block_size", 0),
            ("concurrency_limit", 0),
            ("capacity_blocks", 0),
            ("capacity_blocks", -5),
            ("capacity_blocks", 10**400),
            ("sample_period", 0.0),
            ("sample_period", -3.0),
            ("sample_period", float("nan")),
            ("sample_period", float("inf")),
        ],
    )
    def test_out_of_range_sizes_rejected(self, field, value):
        # A sample_period <= 0 never moves the window past the clock, and an
        # infinite one never moves it past the final clock: both append
        # samples forever.
        with pytest.raises(ValueError, match=field):
            SimConfig(workload=[list_script()], **{field: value})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"workload": {"kind": "list", "detail": 30}}, "unknown list workload keys ['detail']"),
            ({"workload": {"kind": "random", "items": 3}}, "unknown random workload keys ['items']"),
            ([], "config must be a JSON object"),
            ({"workload": [5]}, "list workload must be a JSON object"),
            ({"capacity_blocks": 2.5}, "capacity_blocks must be an integer, not 2.5"),
            ({"block_size": True}, "block_size must be an integer, not true"),
            ({"workload": {"kind": "list", "items": 2.7}}, "items must be an integer, not 2.7"),
            ({"workload": {"kind": "random", "seed": 1.9}}, "seed must be an integer, not 1.9"),
            ({"cache_budget_fraction": True}, "cache_budget_fraction must be a number, not true"),
            ({"sample_period": "3"}, 'sample_period must be a number, not "3"'),
            ({"sample_period": 10**400}, "sample_period is too large for a float"),
            (
                {"cost": {"t_fixed": True, "c_token": 0.0, "c_attn": 0.0}},
                "t_fixed must be a number, not true",
            ),
            ({"cost": {"t_fix": 0.01}}, "unknown cost keys ['t_fix']"),
            ({"cost": {"t_fixed": 1}}, "missing cost keys ['c_attn', 'c_token']"),
            ({"cost": {}}, "missing cost keys ['c_attn', 'c_token', 't_fixed']"),
        ],
    )
    def test_bad_schema_rejected(self, payload, message):
        with pytest.raises(ValueError) as info:
            config_from_json(json.dumps(payload))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "spec, scripts",
        [
            ({}, lambda: [list_script()] * 100),
            (
                {"count": 2, "detail_len": 3, "items": 7},
                lambda: [list_script(7, detail_len=3)] * 2,
            ),
            ({"kind": "random"}, lambda: [random_script(9 + i) for i in range(100)]),
            (
                {"kind": "random", "count": 3, "seed": 4, "max_node_len": 2},
                lambda: [random_script(4 + i, max_node_len=2) for i in range(3)],
            ),
        ],
    )
    def test_workload_shapes_default_to_the_builders(self, spec, scripts):
        # A shape key the spec leaves out takes its builder's default.
        config = config_from_json(json.dumps({"workload": spec}), default_seed=9)
        assert [script_to_json(s) for s in config.workload] == [
            script_to_json(s) for s in scripts()
        ]

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"detail_len": "x", "items": 2.5, "count": "3"},
                'count must be an integer, not "3"',
            ),
            (
                {"detail_len": "x", "head_len": 1.5, "items": 2.5},
                "items must be an integer, not 2.5",
            ),
            ({"detail_len": "x", "head_len": 1.5}, "head_len must be an integer, not 1.5"),
            (
                {"kind": "random", "max_node_len": 1.5, "max_nodes": True, "seed": "s"},
                'seed must be an integer, not "s"',
            ),
            (
                {"kind": "random", "max_node_len": 1.5, "max_nodes": True},
                "max_nodes must be an integer, not true",
            ),
            # Shape keys are read once, not per script: a count of 0 names
            # them too, as a list spec's does.
            ({"kind": "random", "count": 0, "max_nodes": "x"}, 'max_nodes must be an integer, not "x"'),
        ],
    )
    def test_workload_names_its_first_bad_key(self, spec, message):
        # Keys are read as count, a random spec's seed, then the shape keys
        # in their builder's parameter order, whatever the spec's own order.
        with pytest.raises(ValueError) as info:
            config_from_json(json.dumps({"workload": spec}))
        assert str(info.value) == message

    def test_list_without_items_rejected(self):
        with pytest.raises(ValueError, match="at least 1 item"):
            list_script(items=0)

    @pytest.mark.parametrize("field", ["intro_len", "head_len", "detail_len"])
    def test_negative_list_length_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            list_script(**{field: -1})
        assert list_script(**{field: 0}).nodes  # an empty part is still a list
