"""Run one workload in this process and print its result as the last line.

Usage: worker.py WORKLOAD SEED SECONDS TRACE

``run.py`` starts this file in a fresh interpreter per workload.  It imports
``apar`` from the ``src`` directory of the checkout that holds it and from
nowhere else, sets up several times, then repeats whole rounds of the
workload until SECONDS have passed.

TRACE 0 runs the speed probe of ``speed.py`` and reports the end-to-end
metrics: each op's time is put on the probe's scale, and each figure is
computed from every op's median scaled time over the rounds.  TRACE 1
alternates an untraced round with a traced one, and reports the per-layer
metrics of the traced rounds plus the tracing overhead between the two.
"""

import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_NS, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
EXIT_NO_PROGRAM = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "us_per_token": "us",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}
# What the generic end-to-end metrics are called on each workload.
NAMED = {
    "serve-paper": {
        "ops_per_s": "serve.simulations_per_s",
        "us_per_token": "serve.us_per_token",
        "op_ms_p50": "serve.sim_ms_p50",
        "op_ms_tail": "serve.sim_ms_max",
    },
    "decode-bench": {
        "ops_per_s": "decode.scripts_per_s",
        "us_per_token": "decode.us_per_token",
        "op_ms_p50": "decode.script_ms_p50",
        "op_ms_tail": "decode.script_ms_tail",
    },
    "prep-corpus": {
        "ops_per_s": "prep.convs_per_s",
        "us_per_token": "prep.us_per_token",
        "op_ms_p50": "prep.conv_ms_p50",
        "op_ms_tail": "prep.conv_ms_tail",
    },
}


def import_program():
    if not (SRC / "apar" / "__init__.py").is_file():
        print(f"error: no apar package under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import apar
    import numpy

    if Path(apar.__file__).resolve().parent != (SRC / "apar").resolve():
        print(f"error: apar imported from {apar.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return numpy


def stamp(numpy, workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_probe() -> float:
    """Seconds to import numpy, apar and the workloads in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(probe.stdout)


def tail_index(n: int) -> int:
    """Index in sorted order of the highest percentile with ten samples above it."""
    return n - 11 if n > 10 else n - 1


def run_round(wl, tracer=None, probe=None) -> dict:
    """Time every op of one round; check each one after its timer stops.

    An op's time is running it plus freeing its output; the check between
    the two is not timed, nor is the time the speed probe took inside it.
    Each round starts right after a full garbage collection, so its
    collections fall at the same points in every round.
    """
    gc.collect()
    run = tracer.root("bench.op") if tracer else lambda fn: fn()
    free = tracer.root("bench.free") if tracer else lambda fn: fn()
    stolen = (lambda: probe.stolen) if probe else (lambda: 0)
    times, spans, tokens, failed = [], [], 0, 0
    for op in wl.ops:
        s0, t0 = stolen(), time.perf_counter_ns()
        try:
            out = [run(op.run)]
        except Exception as exc:  # a failed op is counted, the round goes on
            t1 = time.perf_counter_ns()
            times.append(t1 - t0 - (stolen() - s0))
            spans.append((t0, t1))
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        t1, s1 = time.perf_counter_ns(), stolen()
        failed += not op.check(out[0])
        tokens += op.tokens(out[0])
        s2, t2 = stolen(), time.perf_counter_ns()
        free(out.clear)
        t3, s3 = time.perf_counter_ns(), stolen()
        times.append(t1 - t0 + t3 - t2 - (s1 - s0) - (s3 - s2))
        spans.append((t0, t3))
    return {"times": times, "spans": spans, "tokens": tokens, "failed": failed}


def round_figures(rnd: dict) -> dict:
    times = sorted(rnd["times"])
    total = sum(times)
    return {
        "ops_per_s": len(times) / (total / 1e9),
        "us_per_token": total / 1e3 / max(rnd["tokens"], 1),
        "op_ms_p50": statistics.median(times) / 1e6,
        "op_ms_tail": times[tail_index(len(times))] / 1e6,
        "wall_s": total / 1e9,
    }


def best_round(rounds: list[dict]) -> dict:
    """Each op's fastest time over the rounds.

    Interference from other tenants only ever adds time, and it comes and
    goes over seconds, so the minimum over rounds spread across the run is
    the steadiest estimate of an op's own cost.
    """
    times = [min(per_op) for per_op in zip(*(r["times"] for r in rounds))]
    return {"times": times, "tokens": rounds[0]["tokens"]}


def scaled_round(rounds: list[dict], probe) -> dict:
    """Each op's median time over the rounds, every time put on the probe's scale."""
    scaled = (
        [t * probe.scale(*span) for t, span in zip(r["times"], r["spans"])] for r in rounds
    )
    times = [statistics.median(per_op) for per_op in zip(*scaled)]
    return {"times": times, "tokens": rounds[0]["tokens"]}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    # The untraced run puts its times on the speed probe's scale; the traced
    # run reports host times as they are and installs nothing but the tracer.
    probe = None if trace else SpeedProbe()
    if probe:
        probe.start()
    stolen = (lambda: probe.stolen) if probe else (lambda: 0)

    def timed(fn):
        """fn's result, and (ns it took without the probe's time, start, end)."""
        s0, t0 = stolen(), time.perf_counter_ns()
        result = fn()
        t1 = time.perf_counter_ns()
        return result, (t1 - t0 - (stolen() - s0), t0, t1)

    def load():
        numpy = import_program()
        from workloads import WORKLOADS

        return numpy, WORKLOADS

    (numpy, WORKLOADS), took = timed(load)
    imports, setups = [took], []

    def set_up():
        def build():
            wl = WORKLOADS[workload](seed)
            for op in wl.warm_ops:
                op.run()
            return wl

        wl, took = timed(build)
        setups.append(took)
        return wl

    def probe_imports():
        if probe:
            probe.stop()  # the fresh interpreter runs on its own
        t0 = time.perf_counter_ns()
        took = import_probe()
        imports.append((round(took * 1e9), t0, time.perf_counter_ns()))
        if probe:
            probe.start()

    def seconds_of(took) -> float:
        ns, t0, t1 = took
        return ns * (probe.scale(t0, t1) if probe else 1) / 1e9

    wl = set_up()
    # Inputs and modules live for the whole run: keep them out of the
    # collector's full passes, whose cost would otherwise drift by round.
    gc.collect()
    gc.freeze()
    print("stamp: " + json.dumps(stamp(numpy, workload, seed)))

    tracer = None
    if trace:
        from layers import SPANS, layer_values
        from tracer import SELF, Tracer

        tracer = Tracer(SPANS)
    plain, traced, layer_rows, accounted = [], [], [], []
    t_begin = time.perf_counter()
    while not plain or time.perf_counter() - t_begin < seconds:
        plain.append(run_round(wl, probe=probe))
        # Set-up is repeated between the first rounds, not back to back, so
        # its median does not rest on one moment of a noisy machine.
        if len(setups) < SETUP_REPEATS:
            set_up()
            probe_imports()
        if tracer:
            tracer.install()
            tracer.reset()
            traced.append(run_round(wl, tracer))
            tracer.uninstall()
            layer_rows.append(layer_values(tracer))
            self_ns = sum(st[SELF] for st in tracer.stats.values())
            accounted.append(self_ns / sum(traced[-1]["times"]))
    rounds = plain + traced
    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if probe:
        probe.stop()
        best = scaled_round(plain, probe)
    else:
        best = best_round(plain)
    n_ops = len(best["times"])
    print(
        f"{workload}: {len(plain)} untraced rounds of {n_ops} ops and {best['tokens']} tokens;"
        f" tail = p{100.0 * (tail_index(n_ops) + 1) / n_ops:.2f} of {n_ops} op times"
    )
    imports_s, setups_s = [seconds_of(t) for t in imports], [seconds_of(t) for t in setups]
    setup_s = statistics.median(imports_s) + statistics.median(setups_s)
    print(f"  imports {[round(s, 3) for s in imports_s]} s, set-ups {[round(s, 3) for s in setups_s]} s")
    if probe:
        ref = statistics.median(probe.times)
        print(
            f"  speed probe: {len(probe.times)} samples, median reference {ref / 1e3:.1f} us"
            f" (scale {REF_NS / ref:.3f}), {probe.stolen / 1e9:.2f} s in the probe"
        )
        raw = round_figures(best_round(plain))
        print("  unscaled, fastest of the rounds: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for rnd in plain:
        print("  round " + " ".join(f"{k}={v:.6g}" for k, v in round_figures(rnd).items()))

    if tracer:
        overhead = sum(best_round(traced)["times"]) / sum(best["times"]) - 1
        metrics = {name: statistics.median(row[name][0] for row in layer_rows) for name in layer_rows[0]}
        units = {name: unit for name, (_, unit) in layer_rows[0].items()}
        metrics["trace.overhead_frac"], units["trace.overhead_frac"] = overhead, "ratio"
        metrics["trace.accounted_frac"], units["trace.accounted_frac"] = statistics.median(accounted), "ratio"
        metrics["trace.missing_entry_points"], units["trace.missing_entry_points"] = len(tracer.missing), "count"
        print(f"  missing entry points: {', '.join(tracer.missing) or 'none'}")
        wall = sum(traced[-1]["times"])
        print(f"  self time share of the last traced round ({wall / 1e9:.3f} s):")
        for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1][SELF]):
            if st[0]:
                print(f"    {name:34s} {st[SELF] / wall:7.2%}  calls={st[0]}")
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{k: v for k, v in round_figures(best).items() if k != "wall_s"},
        }
        units = END_TO_END_UNITS
        named = {NAMED[workload].get(k, k): (v, units[k]) for k, v in metrics.items()}
        if workload == "serve-paper":
            named["serve.apar_s"] = (best["times"][0] / 1e9, "s")
            named["serve.ar_s"] = (best["times"][1] / 1e9, "s")
        for name, (value, unit) in named.items():
            print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
