"""Tests of the benchmark's own code.

    python3 -m pytest bench

Span arithmetic runs on synthetic spans; the failure-counting and smoke
tests run the real CLI through the benchmark's child process.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _span(sid, parent, name, start, end, **counts):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "counts": counts}


# ------------------------------------------------------------ span arithmetic


def test_self_time_of_a_nested_call():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    with tracer.span(tracing.ROOT):
        clock.advance(1.0)
        with tracer.span("instances.generate_instance"):
            clock.advance(2.0)
            with tracer.span("gaussians.sample_lattice_rows"):
                clock.advance(4.0)
            clock.advance(0.5)
        with tracer.span("verify.oracle"):
            clock.advance(1.5)
        clock.advance(1.0)
    own = tracing.self_times(tracer.spans)
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]
    assert [own[s["id"]] for s in tracer.spans] == [2.0, 2.5, 4.0, 1.5]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.command.s"] == 2.0
    assert metrics["instances.generate_instance.s"] == 2.5
    assert metrics["gaussians.sample_lattice_rows.s"] == 4.0
    assert metrics["verify.oracle.s"] == 1.5
    layer_total = sum(v for k, v in metrics.items() if k.endswith(".s"))
    assert layer_total == tracing.command_time(tracer.spans) == 10.0


def test_span_ends_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    try:
        with tracer.span(tracing.ROOT):
            clock.advance(3.0)
            raise ValueError("boom")
    except ValueError:
        pass
    assert tracer.spans[0]["end"] == 3.0
    assert not tracer._stack


def test_counts_sum_or_take_the_max_and_unreached_layers_read_zero():
    spans = [_span(0, None, tracing.ROOT, 0.0, 4.0),
             _span(1, 0, "instances.generate_instance", 0.0, 2.0,
                   consumed=1000, draws=90),
             _span(2, 1, "gaussians.sample_lattice_rows", 0.5, 1.0,
                   rows=300, window=63, peak_mb=10.0),
             _span(3, 1, "gaussians.sample_lattice_rows", 1.0, 1.5,
                   rows=100, window=27, peak_mb=4.0),
             _span(4, 0, "instances.generate_instance", 2.0, 4.0,
                   consumed=1000, draws=95)]
    metrics = tracing.layer_metrics(spans)
    assert metrics["gaussians.sample_lattice_rows.rows"] == 400
    assert metrics["gaussians.sample_lattice_rows.window"] == 63
    assert metrics["gaussians.sample_lattice_rows.peak_mb"] == 10.0
    assert metrics["instances.accept_ratio"] == 185 / 2000
    assert metrics["lwe.run_chain.s"] == 0.0
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_merged_spans_of_two_processes_keep_their_parents():
    a = [_span(0, None, tracing.ROOT, 0.0, 2.0), _span(1, 0, "verify.oracle", 0.5, 1.0)]
    b = [_span(0, None, tracing.ROOT, 5.0, 6.0), _span(1, 0, "verify.oracle", 5.0, 5.5)]
    merged = run.merge_spans([a, b])
    assert [(s["id"], s["parent"]) for s in merged] == [(0, None), (1, 0), (2, None), (3, 2)]
    assert tracing.layer_metrics(merged)["verify.oracle.s"] == 1.0


def test_closure_flags_time_under_an_unreported_name():
    spans = [_span(0, None, tracing.ROOT, 0.0, 4.0), _span(1, 0, "verify.oracle", 1.0, 2.0)]
    assert run.closure_error([_outcome("verify", 1, spans)]) == 0.0
    spans.append(_span(2, 0, "unprobed.layer", 2.0, 3.0))
    assert run.closure_error([_outcome("verify", 1, spans)]) == -1.0


# ------------------------------------------------------------ failure counting


def test_failed_verify_is_counted_not_raised(tmp_path):
    env = run.child_env(ROOT)
    state = {}
    gen = run.Command("gen-instance", ("gen-instance", *run.PRESET, "--m-prime", "20000",
                                       "--tag", "alternative", "--seed", "3",
                                       "--out", "alternative.inst"))
    verify = run._instance_verify(3)[1]  # the workload's own command and check
    assert verify.role == "verify"
    made = run.run_command(gen, tmp_path, env, state)
    assert made.ok, made.errors
    sidecar = tmp_path / "alternative.inst.meta.json"
    meta = json.loads(sidecar.read_text())
    meta["secret"][0] = -meta["secret"][0]
    sidecar.write_text(json.dumps(meta))
    checked = run.run_command(verify, tmp_path, env, state)
    assert checked.exit_code == 4
    assert not checked.ok
    assert run.tally([made, checked]) == (2, 1, 0.5)


def test_a_check_that_raises_is_a_failure(tmp_path):
    # --help exits 0 and writes no report, so the advantage check cannot read one
    help_only = run.Command("distinguish", ("distinguish", "--help"),
                            run._distinguish(1)[0].checks)
    out = run.run_command(help_only, tmp_path, run.child_env(ROOT), {})
    assert out.exit_code == 0
    assert not out.ok and "check raised" in out.errors[0]


# ------------------------------------------------------------ names and contract


def test_names_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def _outcome(role, trace, spans=None):
    return run.Outcome(role, (), trace, exit_code=0, setup_s=1.25, command_s=2.5,
                       peak_rss_mb=100.0, spans=spans)


def test_emitted_metric_names_match_benchmark_json():
    spans = [_span(0, None, tracing.ROOT, 0.0, 2.5)]
    sets = [[_outcome("gen-instance", 0), _outcome("verify", 0)]]
    traced = [[_outcome("gen-instance", 1, spans), _outcome("verify", 1, spans)]]
    memory = [[_outcome("gen-instance", 2, spans), _outcome("verify", 2, spans)]]
    result = {"correct": True, "attempted": 6, "failed": 0,
              "end_to_end": run.end_to_end_metrics(sets),
              "per_layer": run.layer_metrics(traced, memory, sets)}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = run.contract_line(result, trace)
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert set(line["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_keeps_the_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and name.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ------------------------------------------------------------ whole runs


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "distinguish",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "distinguish",
                           "--seed", "2", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["verify.distinguish.trials"] == 20
    assert metrics["gaussians.sample_lattice_rows.rows"] > 0
    assert metrics["gaussians.sample_lattice_rows.peak_mb"] > 0
    assert metrics["verify.oracle.s"] == 0.0  # distinguish bypasses the oracle
