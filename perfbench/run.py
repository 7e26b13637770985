"""Seeded benchmark of steelnav's decision pipeline and simulators.

Run from the repository root:

    python3 perfbench/run.py --workload decide-small --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller, one process):

* ``decide-small``: 60 in-memory frames of about 1.2k raw points at 1 cm
  pitch through ``switching.decide`` and ``decision_to_json``.
* ``decide-dense``: six PCD files, a raw-size ladder of about 15k, 45k and
  180k points, each level and tilted, through ``steelnav decide``.
* ``sim-loop``: drive, magnet and jump simulator jobs, each serialised.

The run imports the package from ``src/`` next to this directory, builds its
inputs from ``--seed``, then repeats whole passes over them until
``--seconds`` have gone by.  Every operation runs under a deadline and the
process under an address-space cap; an overrun, a MemoryError, an exception,
an unexpected exit code or a wrong output counts the operation as failed,
and the run goes on.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` instead runs
every operation one layer at a time with a span around each call, checks
that the staged output is byte-identical to the plain call's, and reports
per-layer metrics per pass over the inputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, failure kinds, spans) is written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import harness

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

DEADLINE_S = 3.0
MEMORY_HEADROOM_MIB = 256
SETUP_ROUNDS = 3

# (name, unit, name used for it on the decide workloads, on sim-loop)
END_TO_END = (
    ("ops_per_s", "1/s", "frames_per_s", "jobs_per_s"),
    ("op_p50_ms", "ms", "decide_p50_ms", "sim_job_p50_ms"),
    ("op_tail_ms", "ms", "decide_tail_ms", "sim_job_tail_ms"),
    ("ok_frac", "ratio", None, None),
    ("items_per_s", "1/s", "points_per_s", "sim_steps_per_s"),
    ("peak_rss_mb", "MB", None, None),
    ("setup_s", "s", None, None),
)

STAGES = (
    "config.load", "cloud.load", "cloud.passthrough", "cloud.voxel", "cloud.ransac",
    "boundary.estimate", "footprint.place", "switching.height", "switching.serialise",
    "synth.generate", "cloud.save",
    "drive.track", "drive.csv", "actuate.magnet", "actuate.magnet_csv", "actuate.jump", "actuate.plan",
)
SETUP_STAGES = frozenset({"synth.generate", "cloud.save"})
COUNTS = (
    ("cloud.voxel.keep_ratio", "ratio"),
    ("cloud.ransac.inlier_ratio", "ratio"),
    ("cloud.ransac.no_plane", "count"),
    ("boundary.estimate.points_out", "count"),
    ("boundary.estimate.max_window", "count"),
    ("boundary.estimate.pairs", "count"),
    ("footprint.place.candidates_tried", "count"),
    ("drive.track.steps", "count"),
    ("actuate.magnet.steps", "count"),
    ("trace.overhead_ms", "ms"),
)
# Failure kinds that make the run's outputs untrustworthy as a whole: an
# output that changed between passes over identical inputs, or a staged
# (traced) output that differs from the plain call's.  An output that
# contradicts its design is a failed operation (wrong_verdict, wrong_output)
# and shows in ``failed`` and ``ok_frac`` instead.
INTEGRITY_KINDS = frozenset({"nondeterministic", "trace_mismatch"})


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for stage in STAGES:
        names += [(f"{stage}.calls", "count"), (f"{stage}.busy_ms", "ms"), (f"{stage}.failed", "count")]
    return names + list(COUNTS)


def _parse(argv):
    parser = argparse.ArgumentParser(description="steelnav benchmark")
    parser.add_argument("--workload", required=True, choices=("decide-small", "decide-dense", "sim-loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the benchmark's self-test")
    return parser.parse_args(argv)


class Tally:
    """Outcome of every operation attempted in the measured passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.ok = 0
        self.work = 0
        self.kinds: Counter = Counter()
        self.failed_ops: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.max_window = 0
        self.overhead_s = 0.0
        self._first_text: dict[str, str] = {}

    def repeats(self, op, outcome) -> bool:
        """True unless this operation's output differs from its first pass."""
        return self._first_text.setdefault(op.name, outcome.text) == outcome.text

    def add(self, op, kind, elapsed):
        self.busy_s += elapsed
        # A failed operation misses every limit, so it counts as at least the deadline.
        self.latencies.append(elapsed if kind is None else max(elapsed, DEADLINE_S))
        if kind is None:
            self.ok += 1
        else:
            self.kinds[kind] += 1
            self.failed_ops.setdefault(op.name, kind)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_plain(op, tally: Tally) -> None:
    outcome, kind, elapsed = harness.call_with_deadline(op.run, DEADLINE_S)
    if kind is None:
        kind = "nondeterministic" if not tally.repeats(op, outcome) else op.check(outcome)
    tally.add(op, kind, elapsed)
    if kind is None:
        tally.work += op.work(outcome)


def run_staged(op, tally: Tally, rec, window_stats) -> None:
    """Staged run with spans, then the plain call; outputs must match byte for byte."""
    ctx: dict = {}

    def staged():
        with rec.span("op", op.name):
            return op.staged(rec, ctx)

    outcome, kind, staged_s = harness.call_with_deadline(staged, DEADLINE_S)
    patch = ctx.pop("patch", None)
    if patch is not None:
        largest, pairs = window_stats(patch)
        tally.max_window = max(tally.max_window, largest)
        tally.counts["pairs"] += pairs
    tally.counts.update(ctx)
    if kind is None:
        kind = "nondeterministic" if not tally.repeats(op, outcome) else op.check(outcome)
    if outcome is not None:
        plain, plain_kind, plain_s = harness.call_with_deadline(op.run, DEADLINE_S)
        if plain_kind is not None:
            kind = kind or plain_kind
        elif plain.text != outcome.text:
            kind = kind or "trace_mismatch"
        else:
            tally.overhead_s += staged_s - plain_s
    tally.add(op, kind, staged_s)


def measure(ops, seconds: float, rec, window_stats) -> tuple[Tally, int]:
    tally = Tally()
    passes = 0
    start = perf_counter()
    while True:
        for op in ops:
            if rec is None:
                run_plain(op, tally)
            else:
                run_staged(op, tally, rec, window_stats)
        passes += 1
        if perf_counter() - start >= seconds:
            return tally, passes


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, float]:
    """Metric values, and the percentile the tail metric reports."""
    p, tail_s = harness.tail(tally.latencies)
    busy = tally.busy_s
    values = {
        "ops_per_s": tally.ok / busy,
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_frac": tally.ok / tally.attempted,
        "items_per_s": tally.work / busy,
        "peak_rss_mb": harness.peak_rss_mib() * (1 << 20) / 1e6,
        "setup_s": setup_s,
    }
    return values, p


def per_layer(tally: Tally, rec, passes: int) -> dict:
    totals: Counter = Counter()
    for s in rec.spans:
        totals[(s.name, "calls")] += 1
        totals[(s.name, "busy_ms")] += (s.end - s.start) * 1e3
        totals[(s.name, "failed")] += s.error is not None
    values = {}
    for stage in STAGES:
        div = 1 if stage in SETUP_STAGES else passes
        for field in ("calls", "busy_ms", "failed"):
            values[f"{stage}.{field}"] = totals[(stage, field)] / div
    c = tally.counts
    values.update({
        "cloud.voxel.keep_ratio": c["voxel_out"] / c["voxel_in"] if c["voxel_in"] else 0.0,
        "cloud.ransac.inlier_ratio": c["inliers"] / c["ransac_in"] if c["ransac_in"] else 0.0,
        "cloud.ransac.no_plane": c["no_plane"] / passes,
        "boundary.estimate.points_out": c["points_out"] / passes,
        "boundary.estimate.max_window": tally.max_window,
        "boundary.estimate.pairs": c["pairs"] / passes,
        "footprint.place.candidates_tried": c["candidates_tried"] / passes,
        "drive.track.steps": c["drive_steps"] / passes,
        "actuate.magnet.steps": c["magnet_steps"] / passes,
        "trace.overhead_ms": tally.overhead_s * 1e3 / passes,
    })
    return values


def environment(args, cap_bytes: int) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "deadline_s": DEADLINE_S,
        "memory_cap_mib": round(cap_bytes / (1 << 20), 1), "memory_headroom_mib": MEMORY_HEADROOM_MIB,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "steelnav" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {src / 'steelnav'}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import steelnav
    import workloads
    import_s = perf_counter() - t0
    if Path(steelnav.__file__).resolve().parent != (src / "steelnav").resolve():
        print(f"perfbench: imported steelnav from {steelnav.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np

    setup = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}"
    harness.install_deadline_handler()

    rec = harness.SpanRecorder() if args.trace else None
    if rec is not None:
        ops = setup(np.random.default_rng(args.seed), args.scale, workdir, rec)
        setup_s = None
    else:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = perf_counter()
            ops = setup(np.random.default_rng(args.seed), args.scale, workdir, harness.SpanRecorder())
            rounds.append(perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)

    slice_width = workloads.load_config(None).slice_width
    with harness.memory_cap(MEMORY_HEADROOM_MIB) as cap:
        tally, passes = measure(ops, args.seconds, rec, lambda patch: workloads.window_stats(patch, slice_width))

    shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args, cap)
    failed = tally.attempted - tally.ok
    correct = not any(kind in INTEGRITY_KINDS for kind in tally.kinds)
    record = {"env": env, "passes": passes, "attempted": tally.attempted, "failed": failed,
              "failure_kinds": dict(tally.kinds), "failed_ops": tally.failed_ops, "correct": correct}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={passes} "
          f"ops={tally.attempted} failed={failed}")
    print("env " + json.dumps(env, sort_keys=True))
    print("failure_kinds " + json.dumps(dict(sorted(tally.kinds.items()))))
    sim = args.workload == "sim-loop"
    if rec is None:
        values, tail_p = end_to_end(tally, setup_s)
        metrics = {}
        for name, unit, decide_alias, sim_alias in END_TO_END:
            value = values[name]
            metrics[name] = {"value": value, "unit": unit}
            alias = sim_alias if sim else decide_alias
            note = f"  [{alias}]" if alias else ""
            if name == "op_tail_ms":
                note += f"  (p{tail_p:g} of {tally.attempted} ops)"
            print(f"{name} = {value:.6g} {unit}{note}")
        print(f"failed_frac = {failed / tally.attempted:.6g} ratio  ({failed} of {tally.attempted})")
        record["tail_percentile"] = tail_p
        record["setup_rounds"] = SETUP_ROUNDS
    else:
        layer = per_layer(tally, rec, passes)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_names()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["metrics"] = metrics
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if rec is not None:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for row in rec.rows(t0):
                fh.write(json.dumps(row) + "\n")

    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
