"""Command-line pipeline: generate, reduce, verify, distinguish.

Every command that draws randomness takes --seed (0 when unset) and writes
byte-identical files given it.  Bulk samples travel as binary f64
records, configuration and reports as JSON, histograms as CSV.

Exit codes: 0 success, 2 a bad parameter or input or an unusable path, 3 the
sample stream ran dry before m' labeled samples were produced (a semantic
outcome of the generator, distinct from an error), 4 verification failed.
"""

import dataclasses
import itertools
import json
import math
import os
import sys

import click
import numpy as np

from . import config
from .frames import part_path, write_json
from .gaussians import sample_continuous
from .instances import (
    generate_instance,
    ptf_region,
    read_labeled_file,
    read_sidecar,
    region_aligned_edges,
    sidecar_path,
    write_labeled_file,
    write_sidecar,
)
from .learners import LEARNERS, distinguish
# bench/tracing.py probes gen_classic_lwe, gen_continuous_lwe and run_chain where this
# module binds them, though the commands stream their files through the block sources
from .lwe import (BatchFile, ChainStream, ClassicStream, ContinuousStream,  # noqa: F401
                  gen_classic_lwe, gen_continuous_lwe, run_chain, write_batch)
from .verify import (
    TestReport,
    atom_safe_edges,
    folded_histogram,
    gaussian_oracle,
    hidden_direction_test,
    isotropic_gaussianity_test,
    massart_condition_estimate,
    max_label_deviation,
    mixture_oracle,
    orthogonal_gaussianity_test,
    project,
    ptf_error_estimate,
    write_histogram_csv,
)

# verification thresholds at the desk-scale presets
TOL_L1 = 0.05
TOL_VIOLATING_MASS = 0.01
TOL_PTF_ERROR = 0.02
TOL_LABEL_BALANCE = 0.05
NULL_ERROR_FACTOR = 0.8
HIDDEN_WINDOW = (-0.8, 0.8)
NULL_WINDOW = (-1.2, 1.2)
MASSART_WINDOW = (-1.3, 1.3)
BALANCE_MIN_COUNT = 2000


class StreamExhausted(click.ClickException):
    exit_code = 3


class _FloatRange(click.FloatRange):
    """A click.FloatRange that also refuses NaN, which passes every bound check."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if math.isnan(value):
            self.fail(f"{value} is not a number.", param, ctx)
        return value


class _OutPath(click.Path):
    """An output file: a missing or unwritable directory fails as the flags are parsed.

    The file is written at OUT.part and renamed onto OUT, so an existing
    OUT that is not a regular file (a directory, /dev/null) fails too.
    """

    def convert(self, value, param, ctx):
        parent = os.path.dirname(os.path.abspath(super().convert(value, param, ctx)))
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            self.fail(f"directory {parent} does not exist or is not writable", param, ctx)
        if os.path.lexists(value) and not os.path.isfile(value):
            self.fail(f"{value} exists and is not a regular file", param, ctx)
        return value


# an input file: _Command refuses any output that would replace it or its sidecar
_IN_PATH = click.Path(exists=True, dir_okay=False)
_CONFIG_OPT = click.option("--config", "config_path", type=_IN_PATH, default=None,
                           help="RunConfig JSON; flags override it.")
_SEED_OPT = click.option("--seed", type=int, default=None, help="Generator seed.")


class _Command(click.Command):
    """A ValueError (bad parameter or input), OSError (unusable path) or
    MemoryError (arrays too large to allocate) exits 2.

    No command writes over a file it reads: it reads each _IN_PATH value and
    that file's sidecar, and writes each _OutPath value, that output's sidecar
    and the part file of each.  A written path that is a read file exits 2
    before the command opens any file.
    """

    def invoke(self, ctx):
        reads, writes = [], []
        for param in self.params:
            path = ctx.params.get(param.name)
            files = [] if path is None else [path, sidecar_path(path)]
            if param.type is _IN_PATH:
                reads += [(param.name.removesuffix("_path"), f) for f in files]
            elif isinstance(param.type, _OutPath):
                writes += [(param.opts[0], w) for f in files for w in (f, part_path(f))]
        try:
            for (flag, out), (what, src) in itertools.product(writes, reads):
                if os.path.exists(out) and os.path.exists(src) and os.path.samefile(src, out):
                    raise ValueError(f"{flag} is the input {what}, which the output would replace")
            return super().invoke(ctx)
        except BrokenPipeError:  # a closed stdout keeps click's own handling
            raise
        except (ValueError, OSError, MemoryError) as err:
            raise click.UsageError(str(err), ctx) from err


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too, so their commands get the rule


def _config_options(*fields):
    """One --field-name option per named RunConfig field, in order.

    Each takes the field's kind (or its config.CHOICES) and defaults to None, so
    a --config value stands unless the flag is given.
    """

    def decorate(fn):
        for name in reversed(fields):
            kind = (click.Choice(config.CHOICES[name]) if name in config.CHOICES
                    else config.KINDS[name])
            fn = click.option("--" + name.replace("_", "-"), type=kind, default=None)(fn)
        return fn

    return decorate


@click.group(cls=_Group)
def main():
    """LWE-to-Massart reduction pipeline."""


@main.command("gen-lwe")
@_CONFIG_OPT
@_config_options("kind", "tag", "n", "m", "q", "sigma")
@_SEED_OPT
@click.option("--out", type=_OutPath(), required=True)
def cmd_gen_lwe(config_path, out, **flags):
    """Write an LWE sample batch (binary) plus a JSON metadata sidecar."""
    cfg = config.RunConfig.load(config_path, **flags)
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind == "classic":
        batch = ClassicStream(cfg.n, cfg.m, cfg.q, cfg.sigma, cfg.tag, rng)
    else:
        batch = ContinuousStream(cfg.n, cfg.m, cfg.sigma, cfg.tag, rng)
    write_batch(out, batch)
    write_sidecar(out, config.batch_sidecar("gen-lwe", batch, cfg.seed, kind=cfg.kind, q=batch.q))
    click.echo(f"wrote {batch.m} samples to {out}")


@main.command("reduce-lwe")
@click.argument("batch_path", type=_IN_PATH)
@_SEED_OPT
@click.option("--out", type=_OutPath(), required=True)
def cmd_reduce_lwe(batch_path, seed, out):
    """Continuize a classic modular batch onto the unit torus."""
    seed = config.RunConfig.load(None, seed=seed).seed
    reduced = ChainStream(BatchFile(batch_path), rng=np.random.default_rng(seed))
    write_batch(out, reduced)
    history = [dataclasses.asdict(step) for step in reduced.history]
    write_sidecar(out, config.batch_sidecar("reduce-lwe", reduced, seed,
                                            source=str(batch_path), history=history))
    click.echo(f"continuized {reduced.m} samples to {out} (sigma={reduced.sigma:.6g})")


def _instance(cfg, mconfig, rng, tag, batch=None, secret=None, sink=None):
    """(batch, result) of m' samples from batch or an inline stream; exit 3 if it runs dry.

    The rows go to sink, or without one to the result's x (generate_instance).
    """
    more = "a longer batch that starts with this one"
    if batch is None:
        batch = ContinuousStream(cfg.n, config.stream_budget(cfg), cfg.sigma, tag, rng, secret)
        more = "a larger --m"
    inst = generate_instance(batch, mconfig, rng=rng, sink=sink)
    if not inst.ok:
        raise StreamExhausted(
            f"FAIL: stream exhausted after {inst.consumed} of {batch.m} samples "
            f"({inst.draws} of {cfg.m_prime} labeled samples produced); expected use "
            f"m'((1-eta)/p+ + eta/p-) = {mconfig.expected_use:,.0f}; the same seed with "
            f"{more} replays this walk and carries it on"
        )
    return batch, inst


@main.command("gen-instance")
@_CONFIG_OPT
@click.option("--batch", "batch_path", type=_IN_PATH, default=None,
              help="Unit-torus batch file; omitted: generate inline from config.")
@_config_options("tag", "n", "m", "sigma", "t", "eps", "c_prime", "eta", "m_prime")
@_SEED_OPT
@click.option("--out", type=_OutPath(), required=True)
def cmd_gen_instance(config_path, batch_path, out, **flags):
    """Produce m' labeled samples, or exit 3 when the stream runs dry."""
    batch = None
    if batch_path is not None:
        batch = BatchFile(batch_path)
        if batch.domain != "unit_torus":
            raise ValueError(f"--batch needs a unit-torus batch, not a {batch.domain} "
                             "one: reduce-lwe makes one from it")
    cfg = config.RunConfig.load(config_path, batch, **flags)
    # every check that needs only the flags runs before the inline stream is drawn
    mconfig = config.massart_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    # the records are written as the walk finishes each block; exit 3 or any
    # failure part way writes no instance and no sidecar
    batch, inst = write_labeled_file(
        out, cfg.n, cfg.m_prime,
        lambda sink: _instance(cfg, mconfig, rng, cfg.tag, batch, sink=sink))
    write_sidecar(out, config.instance_sidecar(cfg, batch, inst.consumed))
    click.echo(f"wrote {cfg.m_prime} labeled samples to {out} "
               f"(consumed {inst.consumed} of {batch.m})")


def _alternative_reports(coords, labels, secret, mconfig, bins, tol_l1):
    eta, region = mconfig.eta, mconfig.region
    oracle = mixture_oracle(mconfig)
    edges = atom_safe_edges(HIDDEN_WINDOW[0], HIDDEN_WINDOW[1], bins,
                            [loc for loc, _ in oracle.atoms])
    proj = project(coords, secret)
    model = oracle.bin_masses(edges)
    reports = [
        hidden_direction_test(proj, model, edges, tol_l1),
        orthogonal_gaussianity_test(coords, secret),
    ]
    medges = region_aligned_edges(region, MASSART_WINDOW, max_width=0.05)
    est = massart_condition_estimate(proj, labels, medges, eta=eta,
                                     target=lambda u: ptf_region(u, region))
    reports.append(TestReport(
        name="massart-violating-mass",
        statistic=est.violating_mass,
        threshold=TOL_VIOLATING_MASS,
        passed=est.violating_mass <= TOL_VIOLATING_MASS,
        n_samples=est.n_samples,
        description=f"mass in bins with minority rate > {est.threshold:.3g}",
        params={"eta": eta, "min_count": est.min_count},
    ))
    err = ptf_error_estimate(proj, labels, region)
    reports.append(TestReport(
        name="ptf-disagreement",
        statistic=err,
        threshold=TOL_PTF_ERROR,
        passed=err <= TOL_PTF_ERROR,
        n_samples=len(labels),
        description="labels vs the planted threshold-polynomial region",
        params={"eta": eta},
    ))
    return reports, (proj, model, edges)


def _null_reports(coords, labels, mconfig, bins, tol_l1):
    eta = mconfig.eta
    edges = np.linspace(NULL_WINDOW[0], NULL_WINDOW[1], bins + 1)
    proj = project(coords, np.ones(coords.shape[1]))
    model = gaussian_oracle().bin_masses(edges)
    reports = [
        isotropic_gaussianity_test(coords),
        hidden_direction_test(proj, model, edges, tol_l1),
    ]
    est = massart_condition_estimate(proj, labels, edges, eta=eta,
                                     min_count=BALANCE_MIN_COUNT)
    dev = max_label_deviation(est, eta)
    reports.append(TestReport(
        name="label-balance",
        statistic=dev,
        threshold=TOL_LABEL_BALANCE,
        passed=dev <= TOL_LABEL_BALANCE,
        n_samples=est.n_samples,
        description=f"max per-bin |Pr[y=+1] - {1 - eta:.3g}|",
        params={"eta": eta, "min_count": BALANCE_MIN_COUNT},
    ))
    err = ptf_error_estimate(proj, labels, mconfig.region)
    reports.append(TestReport(
        name="planted-null-error",
        statistic=err,
        threshold=NULL_ERROR_FACTOR * eta,
        passed=err >= NULL_ERROR_FACTOR * eta,
        n_samples=len(labels),
        description="region classifier must not fit independent labels",
        params={"eta": eta},
    ))
    return reports, (proj, model, edges)


@main.command("verify")
@click.argument("instance_path", type=_IN_PATH)
@click.option("--report", "report_path", type=_OutPath(), default=None,
              help="Write the JSON report array here (default: stdout only).")
@click.option("--hist", "hist_path", type=_OutPath(), default=None,
              help="Write the projection histogram (empirical vs model) CSV.")
@click.option("--bins", type=int, default=64, help="Histogram bins, from 1 to m'.")
@click.option("--tol-l1", type=_FloatRange(min=0.0), default=TOL_L1)
def cmd_verify(instance_path, report_path, hist_path, bins, tol_l1):
    """Run the distributional test battery for a labeled instance file."""
    x, labels, header = read_labeled_file(instance_path)
    tag, mconfig, secret = config.read_instance_sidecar(read_sidecar(instance_path), header)
    if not 1 <= bins <= mconfig.m_prime:
        # more bins than samples leaves the histogram gates no power
        raise ValueError(f"--bins must lie in [1, m'={mconfig.m_prime}]")
    if tag == "alternative":
        reports, hist = _alternative_reports(x, labels, secret, mconfig, bins, tol_l1)
    else:
        reports, hist = _null_reports(x, labels, mconfig, bins, tol_l1)
    if report_path:
        write_json(report_path, [r.to_dict() for r in reports])
    if hist_path:
        proj, model, edges = hist  # model is the array the L1 gate read: one binning
        emp = folded_histogram(proj, edges) / len(proj)
        write_histogram_csv(hist_path, edges, {"empirical": emp, "model": model})
    for rep in reports:
        click.echo(f"{'PASS' if rep.passed else 'FAIL'} {rep.name}: "
                   f"statistic {rep.statistic:.6g} vs threshold {rep.threshold:.6g} "
                   f"(n={rep.n_samples})")
    if not all(r.passed for r in reports):
        sys.exit(4)


@main.command("distinguish")
@_CONFIG_OPT
@_config_options("n", "m", "sigma", "t", "eps", "c_prime", "eta", "m_prime", "tau",
                 "trials", "learner")
@click.option("--min-advantage", type=_FloatRange(-1.0, 1.0), default=None,
              help="Exit 4 when the advantage falls below this.")
@click.option("--report", "report_path", type=_OutPath(), default=None)
@_SEED_OPT
def cmd_distinguish(config_path, min_advantage, report_path, **flags):
    """Paired-trial advantage of a learner between the two hypotheses."""
    cfg = config.RunConfig.load(config_path, **flags)
    if cfg.m_prime < 2:
        raise ValueError("distinguish needs m_prime >= 2: each instance is "
                         "split into a training and a held-out half")
    rng = np.random.default_rng(cfg.seed)
    secret = np.where(rng.random(cfg.n) < 0.5, -1.0, 1.0)
    mconfig = config.massart_config(cfg)

    def make_instance(tag, trial_rng):
        if tag == "alternative":
            _, inst = _instance(cfg, mconfig, trial_rng, tag, secret=secret)
            return inst.x, inst.labels
        x = sample_continuous(cfg.n, 1.0, rng=trial_rng, size=cfg.m_prime)
        y = np.where(trial_rng.random(cfg.m_prime) < cfg.eta, -1, 1).astype(np.int8)
        return x, y

    build = LEARNERS[cfg.learner]
    rep = distinguish(make_instance, lambda: build(secret, mconfig.region),
                      tau=cfg.tau, trials=cfg.trials, rng=rng)
    payload = dataclasses.asdict(rep)
    payload["seed"] = cfg.seed
    payload["learner"] = cfg.learner
    se = math.sqrt(2.0 * 0.25 / cfg.trials)
    payload["advantage_2se"] = 2.0 * se
    if cfg.trials < 20:
        payload["warning"] = "underpowered: fewer than 20 paired trials"
    if report_path:
        write_json(report_path, payload)
    click.echo(json.dumps(payload, sort_keys=True))
    if min_advantage is not None and rep.advantage < min_advantage:
        sys.exit(4)


@main.group()
def preset():
    """Named parameter bindings."""


@preset.command("list")
def cmd_preset_list():
    for name, (desc, _) in config.PRESETS.items():
        click.echo(f"{name}: {desc}")


@preset.command("apply")
@click.argument("name", type=click.Choice(sorted(config.PRESETS)))
@click.option("--n", type=click.IntRange(min=1), default=8)
@click.option("--zeta", type=_FloatRange(0.0, 1.0), default=0.5)
@click.option("--m-prime", type=click.IntRange(min=1), default=100_000)
@click.option("--delta", type=_FloatRange(0.0, 1.0, min_open=True, max_open=True),
              default=0.01)
@click.option("--out", type=_OutPath(), required=True)
def cmd_preset_apply(name, n, zeta, m_prime, delta, out):
    """Write the preset's RunConfig JSON; report its parameter condition and stream use."""
    cfg = config.preset(name, n, zeta, m_prime, delta)
    cfg.save(out)
    try:
        mconfig = config.massart_config(cfg)
        for c in mconfig.clauses:
            click.echo(f"{c['clause']}: {'ok' if c['ok'] else 'VIOLATED'} ({c['detail']})")
        p_plus, p_minus = mconfig.acceptance
        expected = mconfig.expected_use
        budget = config.stream_budget(cfg)
        click.echo(f"acceptance: p+ {p_plus:.4g}, p- {p_minus:.4g}")
        click.echo(f"stream: budget {budget:,} vs expected use m'((1-eta)/p+ + eta/p-) = "
                   f"{expected:,.0f} ({budget / expected:.2f}x)")
    except ValueError as err:
        click.echo(f"parameter condition: infeasible at this scale ({err})")
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
