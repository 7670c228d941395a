"""Tests of the benchmark itself: seeded generation, tracing, the sup check."""

import json
import os

import run
import workloads as wl
from tracer import SPANNED, Tracer


def test_seed_fully_determines_targets():
    for workload in wl.WORKLOADS:
        first = wl.generate(workload, 7, 3)
        assert first == wl.generate(workload, 7, 3)
        assert first != wl.generate(workload, 8, 3)
        assert [spec["kind"] for spec in first[0]] == [spec["kind"] for spec in first[2]]
    lib = wl.load_library()
    for workload in wl.WORKLOADS:
        for spec in wl.generate(workload, 7, 1)[0]:
            assert wl.build(lib, spec) is not None


def _bindings(lib):
    owners = [(getattr(lib, key), attr) for key, attr, _ in SPANNED]
    owners.append((lib.tf.Coefficient, "integral"))
    owners.extend((lib.tf, name) for name in wl.CAPTURED)
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in owners}


def test_traced_pass_restores_every_rebound_attribute(tmp_path):
    lib = wl.load_library()
    before = _bindings(lib)
    runner = wl.Runner(lib, "certify", str(tmp_path))
    tracer = Tracer(lib)
    with runner:
        tracer.install()
        try:
            rebound = _bindings(lib)
            target = lib.md.eq26()
            with tracer.span("op"):
                runner.op({}, target)
                lib.sv.integrate(target, lib.sv.ConstantHistory(1.0), 2.0, step=0.05)
        finally:
            tracer.uninstall()
    assert all(rebound[key] is not before[key] for key in before)
    assert all(_bindings(lib)[key] is before[key] for key in before)
    rows = tracer.rows(1)
    assert rows["criteria.certificates"][0] == 3
    assert rows["solver.steps"][0] == 40
    assert rows["timefn.integral_calls"][0] > 0


def test_self_time_subtracts_child_coverage():
    tracer = Tracer(None)
    tracer.spans = [["op", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 5.0, 6.0, 0, 0],
                    ["c", 2.0, 3.0, 1, 0]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_dense_scan_flags_an_underreported_supremum():
    lib = wl.load_library()
    rate, lag = lib.tf.sinsq(1.0, 1.0), lib.tf.ConstantLag(2.0)
    true = lib.tf.sup_window_integral_info(rate, lag)
    low = lib.tf.SupInfo(true.value - 0.05, true.argmax, False)
    record = ("sup_window_integral_info", (rate, lag), {})
    assert wl.check(lib, "certify", {}, {"sups": [record + (true,)]}) == []
    assert len(wl.check(lib, "certify", {}, {"sups": [record + (low,)]})) == 1


def test_benchmark_json_lists_every_per_layer_row():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        listed = {metric["name"] for metric in json.load(fh)["per_layer"]}
    emitted = set(Tracer(None).rows(1)) | {"trace_overhead_frac"}
    emitted |= {"cli.reproduce.%s_s" % scenario for scenario in run.SCENARIOS}
    assert listed == emitted


def test_every_timed_op_gets_a_nominal_latency(monkeypatch):
    monkeypatch.setattr(run, "run_op", lambda runner, spec, op_id=0: (0.01, [], None))
    cycles = [[{"kind": "a"}, {"kind": "b"}, {"kind": "c"}]] * 5
    tally = run.run_ops(None, cycles, seconds=0.0, min_cycles=2)
    assert len(tally.latencies) == len(tally.nominal) == 6
    assert all(t > 0.0 for t in tally.nominal)
    monkeypatch.setattr(run.cal, "EVERY_S", 0.0)
    tally = run.run_ops(None, cycles, seconds=1e9, min_cycles=5)
    assert len(tally.latencies) == len(tally.nominal) == 15
    assert len(tally.calibrations) == 16
