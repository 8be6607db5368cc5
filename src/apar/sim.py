"""Discrete-event continuous-batching simulator.

All requests wait in a queue from time zero.  Groups are admitted while the
concurrency limit and the block pool allow, every live sequence advances one
token per global step, and the clock advances by the step's modeled cost.
Before each step the scheduler reserves the exact number of blocks the step
can allocate; if the pool cannot cover it, the most recently admitted group
is preempted (blocks dropped, request requeued for recompute).  A thread's
blocks return to the pool at its [EOS].

A request's steps depend on its script alone: the engine is deterministic,
and the reservation means no step waits on another group.  So each run
works in two parts.  Before scheduling, each distinct script content is
decoded once, alone, by the engine's decode driver with the mode's replay
model on a private uncapped pool, and its step rows become a step profile
in place:
per step, the batch, the attended and content tokens, the change in the
blocks and slots the group holds, the blocks it allocates, which is the
block demand the scheduler reserves before the step, how far its blocks
peak above the step's start, and the blocks and slots it holds before the
step.  The model lives only while the profile is built, and requests with
equal scripts share one profile.  The scheduler then runs on a step
timeline: an array indexed by global step whose row sums the profile rows
of every live group at that step.  An admission adds its profile from the
current step on and a preemption subtracts the victim's remaining rows,
so each global step reads one row, whatever the number of live groups.
The pool is a running count of used blocks and slots and their peak; only
a step whose summed rise could pass the peak walks the live groups for it.
Completions are kept by the step each group ends at.  No profile outlives
the run.

A config that admits no schedule raises SimulationError.  A profile whose
decode fails the engine's end check (engine.check_decode), or a run that
ends with blocks still held, with requests not completed, or with
completed requests whose content tokens differ from the workload's
flattened content raises its subclass SimulationInvariantError, since
that is a fault of the program, not of the config.

The run samples the system every ``sample_period`` simulated seconds, at
most MAX_SAMPLES times: a period that would take more raises
SimulationError.  A window's latency quartiles, and the summary's, come
from _quartiles; the means stay numpy's pairwise sums.
Summary figures discard the leading warm-up fraction of samples and the
trailing samples taken with no request waiting and none live.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence as Seq

import numpy as np

from .blocks import DEFAULT_BLOCK_SIZE, KvBlockPool
from .engine import (
    ALLOCATIONS,
    CONTENT,
    LOGICAL_PEAK,
    LOGICAL_SLOTS,
    PEAK,
    ROW_WIDTH,
    USED_BLOCKS,
    USED_SLOTS,
    LanguageModel,
    _decode,
    check_decode,
)
from .errors import DecodeInvariantError, SimulationError, SimulationInvariantError
from .runtime import new_group
from .script import (
    ReplayModel,
    ScriptTree,
    as_linear,
    chain_nodes,
    flatten_script,
    random_script,
)

__all__ = [
    "StepCostModel",
    "SimConfig",
    "SimSample",
    "SimReport",
    "run_simulation",
    "default_config",
    "config_from_json",
    "list_script",
]

DEFAULT_COST = dict(t_fixed=0.03, c_token=2e-4, c_attn=2.5e-5)
MAX_SAMPLES = 100_000
# Nodes plus content tokens a JSON config's workload may hold, over all its
# scripts: about 25 times paper scale, default_config(copies=1000).
MAX_WORKLOAD_SIZE = 5_000_000


@dataclass(frozen=True)
class StepCostModel:
    """Latency of one batched step.

    ``t_fixed`` is the weight-access floor that dominates memory-bound
    serving; ``c_attn`` scales with attended tokens and dominates once
    generation is compute-bound.
    """

    t_fixed: float
    c_token: float
    c_attn: float

    def __post_init__(self) -> None:
        if not all(0 <= c < math.inf for c in (self.t_fixed, self.c_token, self.c_attn)):
            raise ValueError("cost constants must be finite and nonnegative")

    def latency(self, batch_size: int, attended_sum: int) -> float:
        return self.t_fixed + self.c_token * batch_size + self.c_attn * attended_sum


def list_script(
    items: int = 5,
    intro_len: int = 4,
    head_len: int = 6,
    detail_len: int = 30,
    prompt: Seq[str] = ("please", "list", "the", "points"),
) -> ScriptTree:
    """Canonical ordered-list script: intro, then item heads forking details.

    The first head shares the intro's node because the generating thread
    forks only after emitting the first head.
    """
    if items < 1:
        raise ValueError(f"a list script needs at least 1 item, not {items}")
    lengths = {"intro_len": intro_len, "head_len": head_len, "detail_len": detail_len}
    for name, length in lengths.items():
        if length < 0:
            raise ValueError(f"{name} must be >= 0, not {length}")
    heads = [[f"h{i}_{j}" for j in range(head_len)] for i in range(items)]
    heads[0][:0] = [f"intro0_{j}" for j in range(intro_len)]
    details = [[f"d{i}_{j}" for j in range(detail_len)] for i in range(items)]
    return ScriptTree(root=0, nodes=chain_nodes(heads, details), prompt=tuple(prompt))


@dataclass
class SimConfig:
    workload: list[ScriptTree]
    mode: str = "apar"
    cache_budget_fraction: float = 1.0
    capacity_blocks: int = 600
    block_size: int = DEFAULT_BLOCK_SIZE
    concurrency_limit: int = 350
    sample_period: float = 3.0
    warmup_discard_fraction: float = 1.0 / 3.0
    cost: StepCostModel = field(default_factory=lambda: StepCostModel(**DEFAULT_COST))

    def __post_init__(self) -> None:
        if not 0 < self.cache_budget_fraction <= 1:
            raise ValueError("cache_budget_fraction must be in (0, 1]")
        if not 0 <= self.warmup_discard_fraction < 1:
            raise ValueError("warmup_discard_fraction must be in [0, 1)")
        if min(self.block_size, self.concurrency_limit, self.capacity_blocks) < 1:
            raise ValueError("block_size, concurrency_limit and capacity_blocks must be >= 1")
        if self.capacity_blocks > sys.float_info.max:
            # effective_blocks scales it by a float
            raise ValueError("capacity_blocks is too large for a float")
        if not 0 < self.sample_period < float("inf"):
            raise ValueError("sample_period must be positive and finite")
        if not self.workload:
            raise ValueError("workload must be non-empty")
        if self.mode not in ("apar", "ar"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def effective_blocks(self) -> int:
        return max(1, int(round(self.capacity_blocks * self.cache_budget_fraction)))


@dataclass
class SimSample:
    time: float
    throughput: float
    latency_mean: float
    latency_p25: float
    latency_p75: float
    used_slots: int
    used_blocks: int
    live_groups: int
    waiting: int


@dataclass
class SimReport:
    mode: str
    cache_budget_fraction: float
    samples: list[SimSample]
    summary: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "cache_budget_fraction": self.cache_budget_fraction,
                "summary": self.summary,
                "samples": [asdict(s) for s in self.samples],
            },
            indent=2,
        )

    def to_csv(self) -> str:
        cols = [f.name for f in fields(SimSample)]
        lines = [",".join(cols)]
        for s in self.samples:
            row = asdict(s)
            lines.append(",".join(f"{row[c]:.6g}" for c in cols))
        return "\n".join(lines) + "\n"


# Columns of a profile's rows, and of the scheduler's timeline, which sums
# them over the live groups.  A profile row is its step's row turned into
# changes in place, so each column sits where the step-row column it comes
# from does; the batch, attended and content columns are the step row's.
D_BLOCKS, D_SLOTS, ALLOC, RISE = USED_BLOCKS, USED_SLOTS, ALLOCATIONS, PEAK
BLOCKS, SLOTS = LOGICAL_SLOTS, LOGICAL_PEAK


class _Profile:
    """One request's step profile (see the module docstring): ``rows``, one
    row per step in the columns above, and ``content``, its content tokens.

    A group shares no block with another, so on the shared pool its counts
    move just as they do on the private one.  A decode that fails the
    engine's end check raises SimulationInvariantError.
    """

    __slots__ = ("rows", "content")

    def __init__(
        self,
        script: ScriptTree,
        make_model: Callable[[ScriptTree], LanguageModel],
        block_size: int,
    ):
        group = new_group(script.prompt, KvBlockPool(block_size=block_size))
        pool = group.pool
        # Used blocks and slots and allocations before the first step.
        start = [pool.used_blocks, pool.used_slots, pool.allocations]
        result = _decode("profile", group, make_model(script))
        try:
            check_decode(result, flatten_script(script), "decoding a request alone")
        except DecodeInvariantError as exc:
            raise SimulationInvariantError(str(exc)) from None
        rows = np.array(result.trace.rows, dtype=np.int64).reshape(-1, ROW_WIDTH)
        # The step rows become the profile rows in place: the counts after
        # each step turn into its changes, its peak into its rise above the
        # blocks before it, and the logical columns into the blocks and
        # slots before it.
        before = np.empty((len(rows), 3), dtype=np.int64)
        before[0] = start
        before[1:] = rows[:-1, USED_BLOCKS : ALLOCATIONS + 1]
        rows[:, RISE] -= before[:, 0]
        rows[:, D_BLOCKS : ALLOC + 1] -= before
        rows[:, BLOCKS:] = before[:, :2]
        self.rows = rows
        self.content = int(self.rows[:, CONTENT].sum())


def _content_key(script: ScriptTree) -> tuple:
    """Everything a request's decode depends on: prompt, root and nodes."""
    return (
        script.prompt,
        script.root,
        tuple(
            (nid, node.id, node.tokens, node.first_child, node.next_sibling)
            for nid, node in sorted(script.nodes.items())
        ),
    )


def _quartiles(values: list[float]) -> tuple[float, float]:
    """The 25th and 75th percentiles of a non-empty list, float for float
    as ``np.percentile(values, (25, 75))`` gives them: Hyndman and Fan's
    type 7, with numpy's two-sided interpolation between neighbours."""
    s = sorted(values)
    last = len(s) - 1
    if not last:
        return s[0], s[0]
    out = []
    for q in (0.25, 0.75):
        idx = last * q
        i = int(idx)
        t = idx - i
        a, b = s[i], s[i + 1]
        d = b - a
        out.append(a + d * t if t < 0.5 else b - d * (1 - t))
    return out[0], out[1]


@dataclass(slots=True)
class _LiveGroup:
    request_id: int
    profile: _Profile
    first: int  # the global step that runs its first profile row
    admit_time: float


def run_simulation(config: SimConfig) -> SimReport:
    """Deterministic event loop over the configured workload."""
    capacity = config.effective_blocks
    waiting: deque[int] = deque(range(len(config.workload)))
    # Live groups by request id, as a request is live at most once, in
    # admission order; the groups that finish after each global step, too.
    live: dict[int, _LiveGroup] = {}
    ends: dict[int, list[_LiveGroup]] = {}
    # The shared pool as counters, and the global steps already run.
    used = used_slots = peak = 0
    step = 0
    clock = 0.0
    next_sample = config.sample_period
    preemptions = 0
    window_content = 0
    window_latencies: list[float] = []
    samples: list[SimSample] = []
    completions: list[tuple[float, float]] = []  # (finish clock, per-token latency)
    total_content = 0
    completed_content = 0
    make_model = ReplayModel if config.mode == "apar" else as_linear
    # Requests with equal scripts share one profile; none outlives the call.
    by_content: dict[tuple, _Profile] = {}
    profiles: list[_Profile] = []
    for script in config.workload:
        key = _content_key(script)
        if key not in by_content:
            by_content[key] = _Profile(script, make_model, config.block_size)
        profiles.append(by_content[key])
    # The step timeline (see the module docstring); it grows as admissions
    # reach past its end.
    timeline = np.zeros((0, ROW_WIDTH), dtype=np.int64)

    def close_windows() -> None:
        nonlocal next_sample, window_content, window_latencies
        # Checked before sampling, so that a tiny period fails at once.
        if clock >= next_sample + (MAX_SAMPLES - len(samples)) * config.sample_period:
            raise SimulationError(
                f"sample_period {config.sample_period} takes more than"
                f" {MAX_SAMPLES} samples"
            )
        while clock >= next_sample:
            lat = window_latencies or [0.0]
            p25, p75 = _quartiles(lat)
            samples.append(
                SimSample(
                    time=next_sample,
                    throughput=window_content / config.sample_period,
                    latency_mean=float(np.mean(lat)),
                    latency_p25=p25,
                    latency_p75=p75,
                    used_slots=used_slots,
                    used_blocks=used,
                    live_groups=len(live),
                    waiting=len(waiting),
                )
            )
            window_content = 0
            window_latencies = []
            next_sample += config.sample_period

    # Anti-thrash valve: a preemption closes admission until a completion
    # frees real space; otherwise fresh admits and the preemptor livelock.
    admission_open = True

    while waiting or live:
        # Admission: fill up to the concurrency limit while the pool can
        # take the prompt plus one block of headroom.
        while waiting and len(live) < config.concurrency_limit and admission_open:
            profile = profiles[waiting[0]]
            rows = profile.rows
            # Row 0 holds the blocks of the prompt alone.
            if capacity - used < rows[0, BLOCKS] + 1:
                break
            req_id = waiting.popleft()
            end = step + len(rows)
            if end > len(timeline):
                grown = np.zeros((max(end, 2 * len(timeline)), ROW_WIDTH), dtype=np.int64)
                grown[: len(timeline)] = timeline
                timeline = grown
            timeline[step:end] += rows
            blocks, slots = rows[0, BLOCKS:].tolist()
            used += blocks
            used_slots += slots
            peak = max(peak, used)
            clock += config.cost.t_fixed + config.cost.c_token * slots
            entry = _LiveGroup(req_id, profile, step, admit_time=clock)
            live[req_id] = entry
            ends.setdefault(end, []).append(entry)
            if clock >= next_sample:
                close_windows()

        # Nothing live means admission is open and the pool empty: only a
        # preemption closes admission, and it leaves a group live; the
        # completions that empty ``live`` reopen it.
        if not live:
            need = profiles[waiting[0]].rows[0, BLOCKS] + 1
            raise SimulationError(
                f"request {waiting[0]} needs {need} blocks"
                f" but the pool holds {capacity}"
            )

        # Reserve this step's worst-case allocations; preempt the most
        # recently admitted group until the step is guaranteed to fit.
        row = timeline[step].tolist()
        while capacity - row[BLOCKS] < row[ALLOC]:
            if len(live) == 1:
                raise SimulationError(
                    f"request {next(iter(live.values())).request_id} cannot fit in"
                    f" {capacity} blocks even alone"
                )
            _, victim = live.popitem()
            rows = victim.profile.rows
            end = victim.first + len(rows)
            timeline[step:end] -= rows[step - victim.first :]
            row = timeline[step].tolist()
            # Admitted last, it is also the last of the groups ending with it.
            bucket = ends[end]
            bucket.pop()
            if not bucket:
                del ends[end]
            waiting.append(victim.request_id)
            preemptions += 1
            admission_open = False
        batch, attended, content, d_blocks, d_slots, _, rise, used, used_slots = row

        # Groups step in live order, and a step's blocks peak within it.  A
        # group's change in blocks is at most its rise, and no rise is
        # negative, so the peak can pass ``peak`` only if ``used + rise`` does.
        if used + rise > peak:
            rising = used
            for entry in live.values():
                own = entry.profile.rows[step - entry.first].tolist()
                if rising + own[RISE] > peak:
                    peak = rising + own[RISE]
                rising += own[D_BLOCKS]
        used += d_blocks
        used_slots += d_slots
        window_content += content
        total_content += content
        clock += config.cost.latency(batch, attended)
        step += 1

        finished = ends.pop(step, None)
        if finished:
            for entry in finished:
                del live[entry.request_id]
                content = entry.profile.content
                completed_content += content
                per_token = (clock - entry.admit_time) / max(content, 1)
                window_latencies.append(per_token)
                completions.append((clock, per_token))
            admission_open = True
        if clock >= next_sample:
            close_windows()

    workload_content = sum(
        len(node.tokens) for s in config.workload for node in s.nodes.values()
    )
    if (
        used
        or len(completions) != len(config.workload)
        or completed_content != workload_content
    ):
        raise SimulationInvariantError(
            f"run ended with {used} blocks still held,"
            f" {len(completions)} of {len(config.workload)} requests completed and"
            f" {completed_content} content tokens completed of the"
            f" workload's {workload_content}"
        )
    clock = max(clock, next_sample)
    close_windows()

    keep = samples[int(np.ceil(len(samples) * config.warmup_discard_fraction)):]
    trimmed = list(keep)
    while trimmed and trimmed[-1].waiting == 0 and trimmed[-1].live_groups == 0:
        trimmed.pop()
    if not trimmed:
        trimmed = keep if keep else samples
    kept_content = sum(s.throughput for s in trimmed) * config.sample_period
    kept_time = len(trimmed) * config.sample_period
    warmup_time = trimmed[0].time - config.sample_period
    kept_lats = [lat for t, lat in completions if t > warmup_time]
    if not kept_lats:
        kept_lats = [lat for _, lat in completions]
    kept_tputs = [s.throughput for s in trimmed]
    p25, p75 = _quartiles(kept_lats)
    summary = {
        "mode": config.mode,
        "cache_budget_fraction": config.cache_budget_fraction,
        "effective_blocks": config.effective_blocks,
        "throughput": kept_content / kept_time,
        # Median kept-window rate: insensitive to the partial final wave an
        # identical-request workload leaves behind.
        "steady_throughput": float(np.median(kept_tputs)),
        "latency_mean": float(np.mean(kept_lats)),
        "latency_p25": p25,
        "latency_p75": p75,
        "completed": len(completions),
        "preemptions": preemptions,
        "content_tokens": total_content,
        "completed_content": completed_content,
        "peak_blocks": peak,
        "simulated_time": clock,
        "samples_kept": len(trimmed),
        "samples_total": len(samples),
    }
    return SimReport(
        mode=config.mode,
        cache_budget_fraction=config.cache_budget_fraction,
        samples=samples,
        summary=summary,
    )


def default_config(mode: str = "apar", copies: int = 100) -> SimConfig:
    """The shipped baseline: an ordered-list workload replicated ``copies`` times.

    The concurrency limit scales with the workload at the serving protocol's
    ratio (350 concurrent for 1000 queued); admitting everything at once
    makes identical requests march in lockstep and thrash the pool.
    """
    return SimConfig(
        workload=[list_script() for _ in range(copies)],
        mode=mode,
        concurrency_limit=max(1, round(0.35 * copies)),
    )


_CONFIG_KEYS = frozenset(f.name for f in fields(SimConfig))
# Shape keys in their builder's parameter order, with its defaults.
_SHAPES = {
    kind: {key: inspect.signature(builder).parameters[key].default for key in keys}
    for kind, builder, keys in (
        ("list", list_script, ("items", "intro_len", "head_len", "detail_len")),
        ("random", random_script, ("max_nodes", "max_node_len")),
    )
}
_WORKLOAD_KEYS = {
    "list": frozenset({"kind", "count", *_SHAPES["list"]}),
    "random": frozenset({"kind", "count", "seed", *_SHAPES["random"]}),
}


def _reject_unknown_keys(what: str, payload: object, known: frozenset[str]) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")


def _number(key: str, value: object, kind: type = float) -> int | float:
    """``value``, read for ``key``, as ``kind``: an int field takes a JSON
    integer, a float field any JSON number, and neither takes a bool."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, not {json.dumps(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{key} is too large for a float") from None


def _workload_size(kind: str, count: int, shape: dict[str, int]) -> int:
    """Nodes plus content tokens of the workload a spec builds, at most: a
    list script's exactly, a random script's bound, times ``count``, and a
    count below 1 still builds a list script."""
    n = {**_SHAPES[kind], **shape}
    if kind == "list":
        items = n["items"]
        size = 2 * items + 1 + n["intro_len"] + items * (n["head_len"] + n["detail_len"])
    else:
        size = n["max_nodes"] * (1 + n["max_node_len"])
    return max(count, 1) * size


def _workload_from_spec(spec: object, default_seed: int) -> list[ScriptTree]:
    kind = spec.get("kind", "list") if isinstance(spec, dict) else "list"
    if kind not in _WORKLOAD_KEYS:
        raise ValueError(f"unknown workload kind {kind!r}")
    _reject_unknown_keys(f"{kind} workload", spec, _WORKLOAD_KEYS[kind])
    count = _number("count", spec.get("count", 100), int)
    if kind == "random":
        seed = _number("seed", spec.get("seed", default_seed), int)
    shape = {key: _number(key, spec[key], int) for key in _SHAPES[kind] if key in spec}
    size = _workload_size(kind, count, shape)
    if size > MAX_WORKLOAD_SIZE:
        raise ValueError(
            f"the workload holds up to {size} nodes and content tokens,"
            f" more than the cap of {MAX_WORKLOAD_SIZE}"
        )
    if kind == "list":
        script = list_script(**shape)
        return [script for _ in range(count)]
    return [random_script(seed + i, **shape) for i in range(count)]


def config_from_json(text: str, default_seed: int = 0) -> SimConfig:
    """Build a config from JSON; a key it leaves out keeps its SimConfig
    default, and each number is read with its field's type.  An unknown key,
    a missing cost key or a value of the wrong JSON type raises ValueError."""
    payload = json.loads(text)
    _reject_unknown_keys("config", payload, _CONFIG_KEYS)
    cost = payload.get("cost")
    if "cost" in payload:
        _reject_unknown_keys("cost", cost, frozenset(DEFAULT_COST))
        missing = sorted(set(DEFAULT_COST) - set(cost))
        if missing:
            raise ValueError(f"missing cost keys {missing}")
    given: dict = {
        "workload": _workload_from_spec(payload.get("workload", {"kind": "list"}), default_seed)
    }
    for f in fields(SimConfig)[1:]:  # after workload, in field order
        if f.name not in payload:
            continue
        if f.name == "mode":
            given["mode"] = payload["mode"]
        elif f.name == "cost":
            given["cost"] = StepCostModel(**{key: _number(key, cost[key]) for key in cost})
        else:
            given[f.name] = _number(f.name, payload[f.name], type(f.default))
    return SimConfig(**given)
