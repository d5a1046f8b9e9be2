"""Benchmark of the lwemassart CLI, end to end and layer by layer.

    python3 bench/run.py --workload instance-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seed 2        # every workload, two seeds
    python3 -m pytest bench                                      # the benchmark's own tests

Run it from the root of a checkout; it needs no installed package, only
the checkout's ``src/``.  Load model: closed loop, one client.  Each CLI
command of a workload runs in a fresh interpreter (``child.py``) with the
BLAS/OpenMP pools pinned to one thread, one command after the other.  The
child stamps the clock after ``import lwemassart.cli`` and after ``main``
returns, so set-up and command time are measured apart.

A run warms up with the workload's first command (untimed), then repeats
the workload's command set, with the same seed, for ``--seconds`` and
reports medians over the sets.  Every command's exit code and outputs are
checked; a failure is counted, never raised.  With ``--trace 1`` each set
is followed by a traced set (the same commands with wrappers installed
around the layers, see ``tracing.py``) and by a memory set (the same
again, with tracemalloc around the lattice sampler, which slows it, so
only its peak is used), and the per-layer metrics are reported instead
of the end-to-end ones.  Untraced commands run in processes that never
install the wrappers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Everything a run writes goes
under ``.bench_work/`` in the checkout; the run's record (machine,
environment, per-command outcomes, spans) stays in
``.bench_work/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path
from typing import Callable, Optional

import tracing

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"

# one thread per pool: steadier on a shared box, and never more than nproc
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
COMMAND_TIMEOUT_S = 120

# the README's tiny-sigma preset; c' = 0.04
PRESET = ("--n", "4", "--sigma", "5.5556e-4", "--t", "0.2", "--eps", "0.025",
          "--eta", "0.05", "--c-prime", "0.04")
GATES = {
    "alternative": {"hidden-direction-l1", "orthogonal-gaussianity",
                    "massart-violating-mass", "ptf-disagreement"},
    "null": {"isotropic-gaussianity", "hidden-direction-l1", "label-balance",
             "planted-null-error"},
}
MIN_ADVANTAGE = 0.5  # the acceptance criterion-08 bar
HISTORY = ("noise-add", "sample-add", "rescale")
RESIDUAL_TOL = 1e-9

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracing.LAYER_METRICS, "trace.overhead_s": "s",
             "gen_instance_s": "s", "verify_s": "s"}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ------------------------------------------------------------------ checks
#
# A check takes the work dir and the run's state (a dict shared by every
# set of the run) and returns an error message, or None when it passes.


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def same_bytes_every_set(*names):
    """Outputs must hash the same in every set of the run (same seed)."""

    def check(workdir, state):
        for name in names:
            digest = _sha256(workdir / name)
            first = state.setdefault("sha256:" + name, digest)
            if digest != first:
                return f"{name} differs between sets of one seed"
        return None

    return check


def verify_gates_pass(tag):
    def check(workdir, state):
        with open(workdir / f"{tag}.report.json") as fh:
            reports = json.load(fh)
        got = {r["test"]: r["pass"] for r in reports}
        if set(got) != GATES[tag]:
            return f"verify {tag}: gates {sorted(got)}, expected {sorted(GATES[tag])}"
        failed = sorted(name for name, ok in got.items() if not ok)
        return f"verify {tag}: failed {failed}" if failed else None

    return check


def advantage_at_least(bar):
    def check(workdir, state):
        with open(workdir / "distinguish.json") as fh:
            advantage = json.load(fh)["advantage"]
        return None if advantage >= bar else f"advantage {advantage} < {bar}"

    return check


def reduced_batch_consistent(workdir, state):
    """The continuized batch satisfies y = mod_1(<x, s> + noise) on the torus."""
    import numpy as np
    from lwemassart.gaussians import mod_1
    from lwemassart.lwe import LweBatch

    batch = LweBatch.load(workdir / "torus.lwe")
    if batch.domain != "unit_torus":
        return f"reduced domain {batch.domain}"
    kinds = tuple(step.kind for step in batch.history)
    if kinds != HISTORY:
        return f"history {kinds}"
    if batch.secret is None or batch.noise is None:
        return "reduced batch lost its secret or noise"
    r = mod_1(batch.y - batch.x @ batch.secret - batch.noise)
    worst = float(np.max(np.minimum(r, 1.0 - r)))
    return None if worst <= RESIDUAL_TOL else f"relation residual {worst:.3g}"


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Command:
    role: str
    args: tuple
    checks: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rationale: str
    commands: Callable  # seed -> list of Command, one set


def _instance_verify(seed):
    cmds = []
    for tag in ("alternative", "null"):
        inst = f"{tag}.inst"
        cmds.append(Command(
            "gen-instance",
            ("gen-instance", *PRESET, "--m-prime", "100000", "--tag", tag,
             "--seed", str(seed), "--out", inst),
            (same_bytes_every_set(inst, inst + ".meta.json"),)))
        cmds.append(Command(
            "verify", ("verify", inst, "--report", f"{tag}.report.json"),
            (verify_gates_pass(tag),)))
    return cmds


def _distinguish(seed):
    return [Command(
        "distinguish",
        ("distinguish", *PRESET, "--m-prime", "10000", "--trials", "20",
         "--learner", "planted", "--seed", str(seed), "--report", "distinguish.json"),
        (advantage_at_least(MIN_ADVANTAGE),))]


def _lwe_chain(seed):
    return [
        Command("gen-lwe", ("gen-lwe", "--kind", "classic", "--tag", "alternative",
                            "--n", "4", "--m", "1600000", "--q", "257", "--sigma", "2.0",
                            "--seed", str(seed), "--out", "classic.lwe")),
        Command("reduce-lwe", ("reduce-lwe", "classic.lwe", "--seed", str(seed),
                               "--out", "torus.lwe"),
                (reduced_batch_consistent,)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "instance-verify",
        "the main user path: gen-instance then verify, for both tags at m'=100k, "
        "so both verify batteries and the lattice sampler run",
        "gen-instance -> verify for --tag alternative and --tag null at the README's "
        "tiny-sigma preset, m'=100k (the acceptance battery's size).  The lattice "
        "sampler dominates gen-instance; the mixture oracle and the orthogonal KS "
        "tests dominate the alternative verify.  The RunConfig defaults (n=8, "
        "sigma~0.556, desk-scale) are not used: verify rejects that instance with "
        "exit 4 because the sigma_noise=0.25 blur swamps the planted region.",
        _instance_verify),
    Workload(
        "distinguish",
        "many small instances, so per-call costs of the sampler and the accept walk "
        "dominate; bypasses the oracle, the KS battery and file I/O",
        "distinguish --learner planted at the same preset, m'=10k, 20 paired trials.  "
        "The bypass workload for verify-battery changes.  An sgd-learner workload is "
        "not measured: SgdHalfspaceLearner.fit takes ~0.04 s at 5k samples.",
        _distinguish),
    Workload(
        "lwe-chain",
        "gen-lwe classic then reduce-lwe at m=1.6M: the continuization chain and the "
        "LWEB format; bypasses the lattice sampler, the rejection core and verify",
        "gen-lwe --kind classic (n=4, m=1.6M, q=257, sigma=2) -> reduce-lwe; ~77 MB "
        "per LWEB file.  The bypass workload for every sampler or accept-walk change "
        "and the only one where lwe.py's chain shows.  reduce_batch is not measured: "
        "no CLI path calls it, and its Step 3 is the same transform_accepted.",
        _lwe_chain),
)}


# --------------------------------------------------------------- execution


@dataclass
class Outcome:
    role: str
    args: tuple
    trace: int
    exit_code: Optional[int] = None
    setup_s: float = 0.0
    command_s: float = 0.0
    peak_rss_mb: float = 0.0
    errors: list = field(default_factory=list)
    spans: Optional[list] = None

    @property
    def ok(self):
        return not self.errors

    def to_dict(self):
        return {"role": self.role, "args": list(self.args), "trace": self.trace,
                "exit_code": self.exit_code, "setup_s": self.setup_s,
                "command_s": self.command_s, "peak_rss_mb": self.peak_rss_mb,
                "errors": self.errors}


def child_env(root):
    env = dict(os.environ)
    env.pop("LWEMASSART_SEED", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update(THREAD_ENV)
    return env


def run_command(cmd, workdir, env, state, trace=0):
    """Run one CLI command in a fresh interpreter, then check its outputs.

    trace: 0 untraced, 1 spans, 2 spans plus the sampler's memory peak.
    """
    out = Outcome(cmd.role, cmd.args, trace)
    record_path = workdir / "record.json"
    record_path.unlink(missing_ok=True)
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(record_path), str(trace), *cmd.args],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out.errors.append(f"timed out after {COMMAND_TIMEOUT_S} s")
        return out
    if not record_path.is_file():
        out.errors.append(f"no record (child exit {proc.returncode}): "
                          + proc.stderr.strip()[-500:])
        return out
    with open(record_path) as fh:
        rec = json.load(fh)
    out.exit_code = rec["exit_code"]
    out.setup_s = rec["t_import"] - t_spawn
    out.command_s = rec["t_end"] - rec["t_import"]
    out.peak_rss_mb = rec["maxrss_kb"] / 1024.0
    out.spans = rec["spans"]
    if out.exit_code != 0:
        out.errors.append(f"exit {out.exit_code}: " + proc.stderr.strip()[-500:])
        return out
    for check in cmd.checks:
        try:
            err = check(workdir, state)
        except (OSError, ValueError, KeyError) as exc:
            err = f"check raised {exc!r}"
        if err:
            out.errors.append(err)
    return out


def run_set(commands, workdir, env, state, trace=0):
    for path in workdir.iterdir():
        path.unlink()
    return [run_command(cmd, workdir, env, state, trace) for cmd in commands]


# ----------------------------------------------------------------- metrics


def merge_spans(span_lists):
    """Concatenate per-process span lists, renumbering ids to stay unique."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for s in spans:
            merged.append({**s, "id": s["id"] + base,
                           "parent": None if s["parent"] is None else s["parent"] + base})
    return merged


def tally(outcomes):
    """(attempted, failed, error rate) of a list of outcomes."""
    failed = sum(not o.ok for o in outcomes)
    return len(outcomes), failed, failed / len(outcomes)


def median_time(sets, role=None):
    """Each command's median time over the sets, summed over the set's
    commands (those of one role, if given)."""
    return sum((statistics.median(s[i].command_s for s in sets)
                for i, o in enumerate(sets[0]) if role in (None, o.role)), 0.0)


def end_to_end_metrics(sets):
    """wall_s, setup_s and peak_rss_mb of the untraced sets."""
    return {
        "wall_s": median_time(sets),
        "setup_s": statistics.median(o.setup_s for s in sets for o in s),
        "peak_rss_mb": statistics.median(max(o.peak_rss_mb for o in s) for s in sets),
    }


def command_metrics(sets):
    return {"gen_instance_s": median_time(sets, "gen-instance"),
            "verify_s": median_time(sets, "verify")}


def _set_layers(traced_set):
    return tracing.layer_metrics(merge_spans(o.spans or [] for o in traced_set))


def layer_metrics(traced_sets, memory_sets, sets):
    """Per-layer metrics: medians over the traced sets, plus the overhead."""
    timed = [_set_layers(s) for s in traced_sets]
    probed = [_set_layers(s) for s in memory_sets]
    out = {name: statistics.median(m[name] for m in
                                   (probed if name in tracing.MEMORY_METRICS else timed))
           for name in tracing.LAYER_METRICS}
    out["trace.overhead_s"] = median_time(traced_sets) - median_time(sets)
    out.update(command_metrics(sets))
    return out


def closure_error(traced_set):
    """Reported layer self times + cli.command.s minus the root-span time.

    Nonzero when a span's time is not reported under a LAYER_METRICS name.
    """
    spans = merge_spans(o.spans or [] for o in traced_set)
    layers = _set_layers(traced_set)
    total = sum(layers[k] for k, unit in tracing.LAYER_METRICS.items() if unit == "s")
    return total - tracing.command_time(spans)


# ----------------------------------------------------------------- running


def machine_info(root, seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "thread_env": THREAD_ENV,
        "commit": commit,
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, root):
    """Warm up, repeat the set for `seconds`, check, summarize, record."""
    work = root / ".bench_work"
    workdir = work / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    state = {}
    commands = workload.commands(seed)
    try:
        warmup = run_set(commands[:1], workdir, env, state)
        sets, traced_sets, memory_sets = [], [], []
        start = now()
        while True:
            sets.append(run_set(commands, workdir, env, state))
            if trace:
                traced_sets.append(run_set(commands, workdir, env, state, trace=1))
                memory_sets.append(run_set(commands, workdir, env, state, trace=2))
            elapsed = now() - start
            if elapsed + elapsed / len(sets) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = warmup + [o for s in sets + traced_sets + memory_sets for o in s]
    attempted, failed, error_rate = tally(outcomes)
    closure = [closure_error(s) for s in traced_sets]
    # a traced set whose layer times do not add up is a failed check
    correct = failed == 0 and all(abs(c) <= 1e-6 for c in closure)
    e2e = end_to_end_metrics(sets)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "rationale": workload.rationale,
        "machine": machine_info(root, seed),
        "seconds": seconds,
        "sets": len(sets),
        "traced_sets": len(traced_sets),
        "memory_sets": len(memory_sets),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "end_to_end": e2e,
        "commands": command_metrics(sets),
        "per_layer": layer_metrics(traced_sets, memory_sets, sets) if trace else None,
        "closure_s": closure,
        "outcomes": [o.to_dict() for o in outcomes],
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload.name}-seed{seed}-trace{int(trace)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        with open(results / f"{stem}.spans.json", "w") as fh:
            json.dump([merge_spans(o.spans or [] for o in s) for s in traced_sets], fh)
    return result


def print_report(result, out=sys.stdout):
    w = result["workload"]
    print(f"== {w}  seed {result['machine']['seed']}  {result['sets']} sets"
          f" + {result['traced_sets']} traced + {result['memory_sets']} memory, "
          f"{result['attempted']} commands, "
          f"{result['failed']} failed", file=out)
    print("  machine " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()),
          file=out)
    rows =[(k, v, END_TO_END[k]) for k, v in result["end_to_end"].items()]
    rows.append(("error_rate", result["error_rate"], "1"))
    rows += [(k, v, "s") for k, v in result["commands"].items() if v]
    for name, value, unit in rows:
        print(f"  {name:<16} {value:12.4f} {unit}", file=out)
    for o in result["outcomes"]:
        for err in o["errors"]:
            print(f"  FAILED {o['role']}: {err}", file=out)
    layers = result["per_layer"]
    if layers is None:
        return
    wall = result["end_to_end"]["wall_s"] + layers["trace.overhead_s"]
    print(f"  traced wall_s {wall:.4f} s, tracing overhead "
          f"{layers['trace.overhead_s']:+.4f} s, closure error "
          f"{max(map(abs, result['closure_s'])):.2e} s", file=out)
    print(f"  {'layer':<40} {'self s':>9} {'share':>7}  counts", file=out)
    for name, value in layers.items():
        if not name.endswith(".s") or name == "trace.overhead_s":
            continue
        prefix = name[:-2]
        counts = ", ".join(f"{k[len(prefix) + 1:]}={v:.6g}" for k, v in layers.items()
                           if k.startswith(prefix + ".") and k != name)
        print(f"  {prefix:<40} {value:9.4f} {value / wall:7.1%}  {counts}", file=out)
    print(f"  {'instances.accept_ratio':<40} {layers['instances.accept_ratio']:.6g}",
          file=out)


def contract_line(result, trace):
    units = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, action="append",
                   help="workload seed; repeat to run every workload on each seed")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time per workload run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lwemassart" / "cli.py").is_file():
        print("error: src/lwemassart/cli.py not found; run from the root of an "
              "lwemassart checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = args.seed or [0]
    lines = {}
    for seed in seeds:
        for name in names:
            result = run_workload(WORKLOADS[name], seed, args.seconds,
                                  bool(args.trace), root)
            print_report(result)
            lines[(name, seed)] = contract_line(result, args.trace)
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{name}@{seed}.{k}": m for (name, seed), v in lines.items()
                        for k, m in v["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
