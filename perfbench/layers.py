"""Which entry points the traced run wraps, and the per-layer metrics.

Every time is host seconds per round and every count is per round.  A
metric whose entry point is missing, or that its workload never reaches,
reads 0.
"""

from __future__ import annotations

from tracer import CALLS, RAISED, SELF, TOTAL, Tracer

CTX_BUCKETS = (("lt1k", 1000), ("1k_4k", 4000), ("ge4k", float("inf")))
MODES = ("apar", "ar")


def _next_token(tr: Tracer, args, result, dur: int) -> None:
    n = len(args[1])
    for bucket, upper in CTX_BUCKETS:
        if n < upper:
            tr.add(f"ctx.{bucket}.ns", dur)
            tr.add(f"ctx.{bucket}.calls", 1)
            return


def _released(tr: Tracer, args, freed, dur: int) -> None:
    tr.add("blocks.freed", freed)


def _snapshot(tr: Tracer, args, usage, dur: int) -> None:
    tr.maximum("blocks.peak_used", usage[2])


def _mask_fill(tr: Tracer, args, mask, dur: int) -> None:
    tr.add("kernels.cells", len(args[0]) ** 2)
    tr.add("kernels.bytes_out", mask.nbytes)  # from the array size, not measured traffic


def _extracted(tr: Tracer, args, samples, dur: int) -> None:
    for _, sample in samples:
        tr.add(f"extract.samples.{sample.kind}", 1)


def _simulated(tr: Tracer, args, report, dur: int) -> None:
    """Record one simulation's exact statistics under its mode."""
    mode = args[0].mode
    summary = report.summary
    calls = sum(tr.stats[name][CALLS] for name in ("script.replay", "script.linear"))
    c = tr.counters
    c[f"sim.sampled_tokens.{mode}"] = calls - c.get("sim.next_token_mark", 0)
    c["sim.next_token_mark"] = calls
    c[f"sim.preemptions.{mode}"] = summary["preemptions"]
    c[f"sim.content_tokens.{mode}"] = summary["content_tokens"]
    c[f"sim.completed_content.{mode}"] = summary["completed_content"]
    c[f"sim.simulated_s.{mode}"] = summary["simulated_time"]
    c[f"sim.useful_token_ratio.{mode}"] = summary["completed_content"] / summary["content_tokens"]


SPANS = [
    ("script.replay", "apar.script", "ReplayModel.next_token", _next_token),
    ("script.linear", "apar.script", "LinearModel.next_token", _next_token),
    ("engine.apar_step", "apar.engine", "apar_step", None),
    ("engine.apar_decode", "apar.engine", "apar_decode", None),
    ("engine.ar_decode", "apar.engine", "ar_decode", None),
    ("runtime.fork_sequence", "apar.runtime", "SequenceGroup.fork_sequence", None),
    ("runtime.append_token", "apar.runtime", "SequenceGroup.append_token", None),
    ("runtime.new_group", "apar.runtime", "new_group", None),
    ("blocks.init", "apar.blocks", "KvBlockPool.__init__", None),
    ("blocks.append_slot", "apar.blocks", "KvBlockPool.append_slot", None),
    ("blocks.fork_table", "apar.blocks", "KvBlockPool.fork_table", None),
    ("blocks.release_sequence", "apar.blocks", "KvBlockPool.release_sequence", _released),
    ("blocks.usage_snapshot", "apar.blocks", "KvBlockPool.usage_snapshot", _snapshot),
    ("tree.path_to_root", "apar.tree", "path_to_root", None),
    ("tree.restore", "apar.tree", "restore", None),
    ("sim.run_simulation", "apar.sim", "run_simulation", _simulated),
    ("metrics.max_cached_tokens", "apar.metrics", "max_cached_tokens", None),
    ("metrics.flatten_max_cached", "apar.metrics", "flatten_max_cached", None),
    ("metrics.mean_attended_tokens", "apar.metrics", "mean_attended_tokens", None),
    ("metrics.flatten_mean_attended", "apar.metrics", "flatten_mean_attended", None),
    ("attention.build_training_mask", "apar.attention", "build_training_mask", None),
    ("kernels.build_mask_array", "apar._kernels", "build_mask_array", _mask_fill),
    ("extract.extract_conversation", "apar.extract", "extract_conversation", _extracted),
    ("extract.classify_response", "apar.extract", "classify_response", None),
    ("extract.build_training_sample", "apar.extract", "build_training_sample", None),
    ("extract.build_loss_mask", "apar.attention", "build_loss_mask", None),
]


def layer_values(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the round just traced: name -> (value, unit)."""
    st, c = tr.stats, tr.counters

    def sec(name: str, field: int = TOTAL) -> float:
        return st[name][field] / 1e9

    def calls(name: str) -> int:
        return st[name][CALLS]

    out: dict[str, tuple[float, str]] = {
        "script.replay_s": (sec("script.replay"), "s"),
        "script.linear_s": (sec("script.linear"), "s"),
        "script.next_token_calls": (calls("script.replay") + calls("script.linear"), "count"),
    }
    for bucket, _ in CTX_BUCKETS:
        n = c.get(f"ctx.{bucket}.calls", 0)
        out[f"script.ns_per_call_ctx_{bucket}"] = (c[f"ctx.{bucket}.ns"] / n if n else 0.0, "ns")
    fork = st["runtime.fork_sequence"]
    mask_cells = c.get("kernels.cells", 0)
    out.update(
        {
            "engine.apar_steps": (calls("engine.apar_step"), "count"),
            "engine.apar_step_self_s": (sec("engine.apar_step", SELF), "s"),
            "engine.decode_self_s": (
                sec("engine.apar_decode", SELF) + sec("engine.ar_decode", SELF),
                "s",
            ),
            "runtime.forks": (fork[CALLS] - fork[RAISED], "count"),
            "runtime.aborted_forks": (fork[RAISED], "count"),
            "runtime.fork_s": (sec("runtime.fork_sequence"), "s"),
            "runtime.append_calls": (calls("runtime.append_token"), "count"),
            "runtime.append_self_s": (sec("runtime.append_token", SELF), "s"),
            "runtime.new_group_s": (sec("runtime.new_group"), "s"),
            "blocks.pool_inits": (calls("blocks.init"), "count"),
            "blocks.pool_init_s": (sec("blocks.init"), "s"),
            "blocks.usage_snapshot_calls": (calls("blocks.usage_snapshot"), "count"),
            "blocks.usage_snapshot_s": (sec("blocks.usage_snapshot"), "s"),
            "blocks.append_slot_calls": (calls("blocks.append_slot"), "count"),
            "blocks.append_slot_s": (sec("blocks.append_slot"), "s"),
            "blocks.fork_table_s": (sec("blocks.fork_table"), "s"),
            "blocks.release_s": (sec("blocks.release_sequence"), "s"),
            "blocks.blocks_freed": (c.get("blocks.freed", 0), "count"),
            "blocks.peak_used": (c.get("blocks.peak_used", 0), "blocks"),
            "tree.path_to_root_calls": (calls("tree.path_to_root"), "count"),
            "tree.path_to_root_s": (sec("tree.path_to_root"), "s"),
            "tree.restore_s": (sec("tree.restore"), "s"),
            "sim.self_s": (sec("sim.run_simulation", SELF), "s"),
        }
    )
    for stat, unit in (
        ("preemptions", "count"),
        ("sampled_tokens", "count"),
        ("content_tokens", "count"),
        ("completed_content", "count"),
        ("simulated_s", "s"),
        ("useful_token_ratio", "ratio"),
    ):
        for mode in MODES:
            out[f"sim.{stat}.{mode}"] = (c.get(f"sim.{stat}.{mode}", 0), unit)
    out.update(
        {
            "metrics.s": (sum(sec(name) for name in st if name.startswith("metrics.")), "s"),
            "attention.mask_s": (sec("attention.build_training_mask"), "s"),
            "attention.mask_self_s": (sec("attention.build_training_mask", SELF), "s"),
            "kernels.mask_fill_s": (sec("kernels.build_mask_array"), "s"),
            "kernels.mask_cells": (mask_cells, "count"),
            "kernels.ns_per_cell": (
                st["kernels.build_mask_array"][TOTAL] / mask_cells if mask_cells else 0.0,
                "ns",
            ),
            "kernels.bytes_out": (c.get("kernels.bytes_out", 0), "B"),
            "extract.convs": (calls("extract.extract_conversation"), "count"),
        }
    )
    for kind in ("ordered_list", "paragraph", "unstructured"):
        out[f"extract.samples.{kind}"] = (c.get(f"extract.samples.{kind}", 0), "count")
    out.update(
        {
            "extract.classify_s": (sec("extract.classify_response"), "s"),
            "extract.sample_self_s": (sec("extract.build_training_sample", SELF), "s"),
            "extract.loss_mask_s": (sec("extract.build_loss_mask"), "s"),
        }
    )
    return out
