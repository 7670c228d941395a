"""Benchmark of the ddestab package: one seeded workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The load model is a closed loop: one process, one op at
a time, the next op starting when the previous one returns, no extra
threads or processes.

``--trace 0`` times whole cycles of the workload's kinds until the ops
have taken ``--seconds`` (at least ``MIN_CYCLES`` cycles; past those, it
stops early if ``WALL_LIMIT`` times ``--seconds`` of wall time pass first)
and prints the end-to-end metrics. Their times are in nominal seconds: each op's and each set-up's wall time,
scaled by the calibration loop of ``calibrate.py`` timed around it, so that
the host's drifting speed cancels out; the report line also gives the
wall-time figures. ``--trace 1`` is the separate traced pass: it runs each
op of the first ``TRACE_CYCLES`` cycles untraced and traced, prints the
per-layer rows, the tracing overhead and the wall time of each
``reproduce`` scenario, and writes the spans to ``perfbench/out``. Both
modes check every op and print an outputs digest of the first
``TRACE_CYCLES`` cycles. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import calibrate as cal  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
MIN_CYCLES = 2
TRACE_CYCLES = 2
SPEC_CYCLES = 400
TAIL_BEYOND = 10
# Wall time, as a multiple of --seconds, after which a timed run stops.
WALL_LIMIT = 1.15
SCENARIOS = ("example1", "example2", "example2a", "example5", "fig1", "fig1a", "fig2")
# The documented fig1a mismatch makes ``reproduce fig1a`` exit 1.
SCENARIO_EXIT = {"fig1a": 1}


def _import_library():
    """Import ddestab afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "ddestab" or m.startswith("ddestab.")]:
        del sys.modules[name]
    lib = wl.load_library()
    origin = os.path.dirname(os.path.abspath(lib.tf.__file__))
    if origin != os.path.join(SRC, "ddestab"):
        raise ImportError("ddestab was imported from %s, not from %s" % (origin, SRC))
    return lib


def _warm_up(lib, workload):
    """A small fixed op through the workload's code paths."""
    if workload == "certify":
        lib.cr.evaluate_all(lib.md.eq26())
        lib.cr.evaluate_all(lib.md.eq3())
    elif workload == "simulate":
        traj = lib.sv.integrate(lib.md.ex51(), lib.sv.ConstantHistory(0.4), 10.0, step=0.01,
                                initial_value=0.6)
        lib.dg.classify(traj, equilibrium=0.5)
    else:
        warm = os.path.join(OUT, "warm")
        with contextlib.redirect_stdout(io.StringIO()):
            lib.cli.main(["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2", "--hi", "0.5",
                          "--points", "2", "--tol", "0.05", "--step", "0.05", "--horizon", "50",
                          "--out", warm])


def setup(workload, seed):
    """Import, generate the targets and warm up, ``SETUP_REPEATS`` times.

    Returns the library and specs of the last repeat, and every repeat's
    wall time and nominal time.
    """
    walls, nominals = [], []
    before = cal.measure()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = _import_library()
        specs = wl.generate(workload, seed, SPEC_CYCLES)
        _warm_up(lib, workload)
        walls.append(perf_counter() - start)
        after = cal.measure()
        nominals.append(walls[-1] * cal.scale(before, after))
        before = after
    return lib, specs, {"wall": walls, "nominal": nominals}


class Tally:
    """Latencies, failures and the outputs digest of a sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.nominal = []  # the timed runs' latencies in nominal seconds
        self.calibrations = []
        self.by_kind = {}
        self.failures = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def add(self, op_id, kind, latency, problems, items):
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)
        if problems:
            self.failures.append({"op": op_id, "kind": kind, "problems": problems})
        if items is not None:
            self.digest.update(json.dumps([op_id, kind, items]).encode())
            self.digest_ops += 1


def run_op(runner, spec, tracer=None, op_id=0):
    """One op: untimed build, timed call, untimed check. -> (latency, problems, items)."""
    target = runner.prepare(spec)
    start = perf_counter()
    try:
        if tracer is None:
            output = runner.op(spec, target)
        else:
            tracer.op = op_id
            with tracer.span("op"):
                output = runner.op(spec, target)
    except Exception:
        latency = perf_counter() - start
        return latency, ["raised: " + traceback.format_exc(limit=3).strip()[-400:]], None
    latency = perf_counter() - start
    runner.collect(spec, output)
    try:
        problems = wl.check(runner.lib, runner.workload, spec, output)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=3).strip()[-400:]]
    return latency, problems, wl.digest_items(runner.workload, output)


def run_ops(runner, cycles, seconds, min_cycles):
    """Run whole cycles until ops have taken ``seconds`` nominal seconds.

    A budget in nominal seconds makes the number of ops, and so which ops
    the latency percentiles fall on, independent of the host's speed. At
    least ``min_cycles`` run; after those, the run also stops, in mid-cycle
    if need be, once ``WALL_LIMIT`` times ``seconds`` of wall time have
    passed. The calibration loop runs before the first op, after an op once
    ``cal.EVERY_S`` have passed since it last ran, and at the end of each
    cycle; each op's latency is scaled by the two passes around it.
    """
    tally = Tally()
    start = perf_counter()
    op_id = 0

    def calibrate():
        tally.calibrations.append(cal.measure())
        if len(tally.calibrations) > 1:
            factor = cal.scale(*tally.calibrations[-2:])
            tally.nominal += [t * factor for t in tally.latencies[len(tally.nominal):]]
        return perf_counter()

    calibrated = calibrate()
    late = False
    for c, cycle in enumerate(cycles):
        for spec in cycle:
            latency, problems, items = run_op(runner, spec, op_id=op_id)
            tally.add(op_id, spec["kind"], latency, problems, items if c < TRACE_CYCLES else None)
            op_id += 1
            late = c >= min_cycles and perf_counter() - start >= WALL_LIMIT * seconds
            if late:
                break
            if perf_counter() - calibrated >= cal.EVERY_S:
                calibrated = calibrate()
        if len(tally.nominal) < len(tally.latencies):
            calibrated = calibrate()
        if late or (c + 1 >= min_cycles and sum(tally.nominal) >= seconds):
            break
    return tally


def latency_stats(latencies):
    """Median and the highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "samples": n,
    }


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def timed(args, lib, specs, setup_times):
    with wl.Runner(lib, args.workload, os.path.join(OUT, args.workload)) as runner:
        tally = run_ops(runner, specs, seconds=args.seconds, min_cycles=MIN_CYCLES)
    stats = latency_stats(tally.nominal)
    wall = latency_stats(tally.latencies)
    attempted = len(tally.latencies)
    metrics = {
        "ops_per_s": (attempted / sum(tally.nominal), "1/s"),
        "latency_p50_s": (stats["p50"], "s"),
        "latency_tail_s": (stats["tail"], "s"),
        "setup_s": (statistics.median(setup_times["nominal"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "tail_percentile": stats["tail_percentile"],
        "latency_samples": stats["samples"],
        "setup_samples_s": setup_times,
        "wall": {"ops_per_s": attempted / sum(tally.latencies), "latency_p50_s": wall["p50"],
                 "latency_tail_s": wall["tail"], "setup_s": statistics.median(setup_times["wall"]),
                 "p50_by_kind_s": {kind: statistics.median(v) for kind, v in tally.by_kind.items()}},
        "calibration_s": {"nominal": cal.NOMINAL_S, "median": statistics.median(tally.calibrations),
                          "min": min(tally.calibrations), "max": max(tally.calibrations),
                          "samples": len(tally.calibrations)},
    }
    return tally, metrics, extra


def traced(args, lib, specs):
    # Each op runs untraced and traced back to back, in alternating order,
    # so drift in machine speed cancels out of the overhead.
    tracer = Tracer(lib)
    plain, tally = Tally(), Tally()
    op_id = 0
    with wl.Runner(lib, args.workload, os.path.join(OUT, args.workload)) as runner:
        for cycle in specs[:TRACE_CYCLES]:
            for spec in cycle:
                for traced_now in ((False, True) if op_id % 2 == 0 else (True, False)):
                    if not traced_now:
                        plain.add(op_id, spec["kind"], *run_op(runner, spec, op_id=op_id))
                        continue
                    tracer.install()
                    try:
                        tally.add(op_id, spec["kind"], *run_op(runner, spec, tracer, op_id))
                    finally:
                        tracer.uninstall()
                op_id += 1
    ops = len(tally.latencies)
    metrics = dict(tracer.rows(ops))
    metrics["trace_overhead_frac"] = (sum(tally.latencies) / sum(plain.latencies) - 1.0, "frac")
    # Wall time of each reproduction scenario, untraced, once per pass.
    repro_out = os.path.join(OUT, "reproduce")
    for scenario in SCENARIOS:
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(["reproduce", scenario, "--out", repro_out])
        wall = perf_counter() - start
        metrics["cli.reproduce.%s_s" % scenario] = (wall, "s")
        expected = SCENARIO_EXIT.get(scenario, 0)
        problems = [] if code == expected else ["exit code %d, expected %d" % (code, expected)]
        tally.add("reproduce " + scenario, "reproduce", wall, problems, None)
    if plain.digest.hexdigest() != tally.digest.hexdigest():
        tally.failures.append({"op": "digest", "problems": ["traced outputs differ from untraced"]})
    spans_path = os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.write_spans(spans_path)
    extra = {"traced_ops": ops, "spans": len(tracer.spans),
             "spans_file": os.path.relpath(spans_path, ROOT)}
    return tally, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ddestab", "__init__.py")):
        print("error: no ddestab sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    lib, specs, setup_times = setup(args.workload, args.seed)
    if args.trace:
        tally, metrics, extra = traced(args, lib, specs)
    else:
        tally, metrics, extra = timed(args, lib, specs, setup_times)

    attempted = len(tally.latencies)
    fail_frac = len(tally.failures) / attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "load_model": "closed loop, 1 process, 1 op at a time",
        "machine": machine(),
        "attempted": attempted,
        "failed": len(tally.failures),
        "fail_frac": fail_frac,
        "digest": tally.digest.hexdigest(),
        "digest_ops": tally.digest_ops,
        "failures": tally.failures[:20],
    }
    report.update(extra)
    for name, (value, unit) in metrics.items():
        print("%-42s %14.6g %s" % (name, value, unit))
    print("%-42s %14.6g %s" % ("fail_frac", fail_frac, "frac"))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
