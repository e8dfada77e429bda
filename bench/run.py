"""Run one benchmark workload against gptsteer and print its metrics.

    python3 bench/run.py --workload theorem-gbit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
next to this directory, never from an installed copy. With ``--trace 0``
the run is closed loop, one client, single-threaded: whole cycles of
rounds run back to back for about ``--seconds`` (or exactly ``--ops``
ops), and the end-to-end metrics are printed, with timings at the
reference speed of ``speed.py``. With ``--trace 1`` a fixed number of
ops (``--ops``, or a count derived from ``--seconds``) runs first
untraced in a child process and then traced in this one; the per-layer
metrics and the tracing overhead are printed and the spans are written
to ``bench/out/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is nonzero if any op failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed
from speed import REFERENCE_S, SpeedProbe, kernel_seconds
from tracing import Tracer, unit_of
from workloads import WORKLOADS, Context

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the median over this many fresh processes; each one times
# the speed kernel this many times after its set-up.
SETUP_RUNS = 3
SETUP_KERNEL_RUNS = 5

# Traced runs execute a fixed op count so their counters repeat exactly:
# seconds * rate ops, with the rate set so that the untraced child and
# the traced run together take about --seconds on a 2-core sandbox.
TRACE_OPS_PER_S = {"theorem-gbit": 6, "geometry-cold": 3,
                   "threshold-bisect": 0.8, "cli-reports": 4}
TRACE_MIN_OPS = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import gptsteer from this checkout's src/, or exit 2."""
    if not (SRC / "gptsteer" / "__init__.py").is_file():
        sys.exit(f"error: no gptsteer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gptsteer
    if SRC not in Path(gptsteer.__file__).resolve().parents:
        sys.exit(f"error: imported gptsteer from {gptsteer.__file__}, not {SRC}")
    return gptsteer


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
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
    return "unknown"


def measure(workload, ctx, seconds, ops, tracer=None):
    """Run rounds until the op budget or the time budget is spent; returns
    the tallies. A timed run measures whole cycles of rounds and stops at
    the cycle boundary nearest to ``seconds``, so that every run has the
    same op mix.

    Check time and speed-kernel time are left out of the measured time.
    """
    latencies = []
    moments = []
    kinds = []
    attempted = failed = 0
    ctx.check_s = 0.0
    probe = SpeedProbe()
    start = time.perf_counter()
    probe.sample()

    def out_of_ops():
        return ops is not None and attempted >= ops

    rounds = workload.rounds(ctx)
    for index in itertools.count():
        if out_of_ops():
            break
        if ops is None and index and index % workload.CYCLE == 0:
            # Stop at the cycle boundary nearest to the time budget, judging
            # the next cycle by the mean of those done so far.
            elapsed = time.perf_counter() - start
            if elapsed * (1 + workload.CYCLE / index / 2) > seconds:
                break
        round_ops = next(rounds)
        try:
            op = next(round_ops)
        except StopIteration:
            continue
        while not out_of_ops():
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            began = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                failed += 1
                print(f"op {attempted} ({op.kind}) raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
                break
            finally:
                if tracer is not None:
                    tracer.op = None
            ended = time.perf_counter()
            latencies.append(ended - began)
            moments.append((began + ended) / 2)
            kinds.append(op.kind)
            probe.sample()
            try:
                op = round_ops.send(result)
            except StopIteration:
                break
            except CheckFailed as err:
                failed += 1
                print(f"op {attempted} ({op.kind}) failed its check: {err}", file=sys.stderr)
                break
            except Exception:
                failed += 1
                print(f"round after op {attempted} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
                break
        round_ops.close()
    wall = time.perf_counter() - start - ctx.check_s - probe.spent
    scaled = [latency * probe.scale_at(moment) for latency, moment in zip(latencies, moments)]
    # Time between ops (drawing inputs, round code) has no op of its own to
    # take a nearby sample from, so it gets the run's average scale.
    scaled_wall = sum(scaled) + (wall - sum(latencies)) * probe.scale()
    by_kind = {}
    for kind, latency in zip(kinds, scaled):
        by_kind.setdefault(kind, []).append(latency * 1000)
    return {"attempted": attempted, "failed": failed, "latencies": scaled,
            "raw_latencies": latencies, "wall_s": scaled_wall, "raw_wall_s": wall,
            "check_s": ctx.check_s, "kernel_s": statistics.median(probe.durations),
            "kernel_samples": len(probe.durations),
            "op_kinds": {kind: {"count": len(v), "median_ms": statistics.median(v)}
                         for kind, v in sorted(by_kind.items())}}


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Time from process start to the end of set-up, per fresh process, at
    the reference speed and raw. Each process times the speed kernel right
    after its set-up."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only"]
        began = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ended = time.perf_counter()
            rest = child.stdout.read().split()
        if child.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
            sys.exit(f"error: set-up process exited with {child.returncode}")
        raw.append(ended - began)
        scaled.append(raw[-1] * REFERENCE_S / float(rest[0]))
    return scaled, raw


def timings(tally, setups, scaled: bool) -> dict:
    """setup_s, ops_per_s and latency percentiles, at the reference speed or raw."""
    lat_ms = [x * 1000 for x in tally["latencies" if scaled else "raw_latencies"]]
    completed = tally["attempted"] - tally["failed"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / tally["wall_s" if scaled else "raw_wall_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }


def end_to_end(tally, setups) -> dict:
    values = timings(tally, setups, scaled=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def untraced_rate(args, ops) -> float:
    """ops_per_s of the same seed and op count, untraced, in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--ops", str(ops)]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if child.returncode != 0:
        sys.exit(f"error: untraced run exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def main() -> int:
    args = parse_args(sys.argv[1:])
    gp = import_package()

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{os.getpid()}"
    ctx = Context(gp, args.seed, str(workdir))
    try:
        if args.setup_only:
            workload.setup(ctx)
            print("ready", flush=True)
            print(statistics.median(kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)))
            return 0
        OUT.mkdir(exist_ok=True)
        if args.trace:
            ops = args.ops or max(TRACE_MIN_OPS,
                                  round(args.seconds * TRACE_OPS_PER_S[args.workload]))
            baseline = untraced_rate(args, ops)
            tracer = Tracer()
            tracer.install()
            workload.setup(ctx)
            tally = measure(workload, ctx, args.seconds, ops, tracer)
            traced = (tally["attempted"] - tally["failed"]) / tally["wall_s"]
            metrics = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in tracer.metrics().items()}
            metrics.update({
                "trace.ops": {"value": tally["attempted"], "unit": "count"},
                "trace.spans": {"value": len(tracer.spans), "unit": "count"},
                "trace.ops_per_s": {"value": traced, "unit": "ops/s"},
                "trace.untraced_ops_per_s": {"value": baseline, "unit": "ops/s"},
                "trace.overhead_ops_per_s": {"value": baseline - traced, "unit": "ops/s"},
            })
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            setups, raw_setups = setup_seconds(args)
            workload.setup(ctx)
            tally = measure(workload, ctx, args.seconds, args.ops)
            metrics = end_to_end(tally, setups)
            tally["raw"] = timings(tally, raw_setups, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally["attempted"], tally["failed"]
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops_limit": args.ops,
            "rational_backend": gp.RATIONAL_BACKEND, "python": platform.python_version(),
            "commit": git_commit(), "nproc": os.cpu_count(), "sizes": ctx.sizes,
            "check_s": tally["check_s"], "latency_samples": len(tally["latencies"]),
            "kernel_s": tally["kernel_s"], "kernel_samples": tally["kernel_samples"],
            "reference_kernel_s": REFERENCE_S, "raw_timings": tally.get("raw"),
            "op_kinds": tally["op_kinds"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':48s} {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
