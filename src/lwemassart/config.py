"""Run parameters: RunConfig, the rules that read one, the presets and the sidecar schema."""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import check_fields, decode_json, write_json
from .instances import MassartConfig
from .learners import LEARNERS


@dataclass
class RunConfig:
    """One flat bag of pipeline parameters; flags override file values."""

    kind: str = "continuous"
    tag: str = "alternative"
    n: int = 8
    m: int = 0  # 0: derive 2 (t/eps) m_prime where a stream budget is needed
    q: int = 257
    sigma: float = 0.5555555555555556
    t: float = 0.2
    eps: float = 0.025
    c_prime: float = 0.04
    c_dprime: float = 4.0
    eta: float = 0.05
    m_prime: int = 1000
    delta: float = 1e-4
    mode: str = "desk-scale"
    tau: float = 0.25
    trials: int = 50
    learner: str = next(iter(LEARNERS))
    seed: int = 0

    def save(self, path):
        write_json(path, dataclasses.asdict(self))

    @classmethod
    def load(cls, path, batch=None, **overrides):
        """The config in path (defaults when None) under every override that is not None.

        A batch sets n, tag and sigma; ValueError names one set otherwise (sigma: rel 1e-9).
        """
        data = {}
        if path is not None:
            with open(path) as fh:
                data = decode_json(fh.read())
            check_fields(data, {}, "config")  # a JSON object
            extra = data.keys() - KINDS.keys()
            if extra:
                raise ValueError(f"unknown config keys: {sorted(extra)}")
            check_fields(data, {k: KINDS[k] for k in data}, "config")
            _check_choices(data, "config")
        data.update((k, v) for k, v in overrides.items() if v is not None)
        for key in () if batch is None else ("n", "tag", "sigma"):
            have = getattr(batch, key)
            v = data.get(key, have)
            if not (math.isclose(v, have, rel_tol=1e-9) if key == "sigma" else v == have):
                raise ValueError(f"{key} {v!r} disagrees with the batch's {key} {have!r}")
            data[key] = have
        return cls(**data)


# each field's annotated type is its JSON kind for frames.check_fields
KINDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# admitted values of the string fields, for the click options and the JSON checks
CHOICES = {
    "kind": ("classic", "continuous"),
    "tag": ("alternative", "null"),
    "mode": ("strict", "desk-scale"),
    "learner": tuple(LEARNERS),
}


def _check_choices(data, where):
    for key, admitted in CHOICES.items():
        if key in data and data[key] not in admitted:
            raise ValueError(f"{where} {key} {data[key]!r} is not one of "
                             f"{', '.join(admitted)}")


# the instance parameter set's fields, each a RunConfig field of the same name and kind
MASSART_FIELDS = tuple(f.name for f in dataclasses.fields(MassartConfig))


def massart_config(cfg):
    """The instance parameter set, copied from cfg by name; ValueError names what cfg violates."""
    return MassartConfig(**{k: getattr(cfg, k) for k in MASSART_FIELDS})


def stream_budget(cfg):
    """Stream cap of an inline instance: cfg.m, or 2 (t/eps) m_prime when 0."""
    if cfg.m < 0:
        raise ValueError("m must be >= 0 (0 derives the stream budget)")
    return cfg.m if cfg.m > 0 else math.ceil(2.0 * (cfg.t / cfg.eps) * cfg.m_prime)


def batch_sidecar(command, batch, seed, **extra):
    """The sidecar of a file that command wrote from batch, plus the extra entries."""
    return {"command": command, "tag": batch.tag, "n": batch.n, "m": batch.m,
            "sigma": batch.sigma, "seed": seed, **extra,
            "secret": None if batch.secret is None else [int(v) for v in batch.secret]}


# the RunConfig fields gen-instance writes to its sidecar and verify reads back
SIDECAR_KEYS = ("tag",) + MASSART_FIELDS


def instance_sidecar(cfg, batch, consumed):
    """The sidecar of an instance built under cfg from consumed samples of batch."""
    return batch_sidecar("gen-instance", batch, cfg.seed, consumed=consumed,
                         **{k: getattr(cfg, k) for k in SIDECAR_KEYS})


def read_instance_sidecar(meta, header):
    """(tag, MassartConfig, secret or None) from a gen-instance sidecar.

    ValueError when a key is missing or ill-typed, when the sidecar and the
    file header disagree on n or m_prime, when the secret is not a ±1
    vector of length n, when an alternative has no secret, or when the
    parameters break a MassartConfig rule.
    """
    check_fields(meta, {**{k: KINDS[k] for k in SIDECAR_KEYS},
                        "secret": Optional[list]}, "sidecar")
    _check_choices(meta, "sidecar")
    for key in ("m_prime", "n"):
        if header[key] != meta[key]:
            raise ValueError(f"sidecar and file header disagree on {key}")
    secret = meta["secret"]
    if secret is not None and (len(secret) != meta["n"] or any(v not in (-1, 1) for v in secret)):
        raise ValueError("sidecar secret must be a ±1 vector of length n")
    if meta["tag"] == "alternative" and secret is None:
        raise ValueError("alternative instance without planted secret")
    mconfig = MassartConfig(**{k: meta[k] for k in MASSART_FIELDS})
    return meta["tag"], mconfig, None if secret is None else np.asarray(secret, dtype=float)


def theorem_d_bindings(n, zeta, m_prime, delta):
    """Parameter bindings of the dimension-d hardness regime.

    t = n^(-0.5 - 0.2 zeta) and eps proportional to n^(-1.5), with the
    ratio rounded to an even integer, eta = 1/3, and the noise scale the
    smaller of n^-5 and the clause-(iv) bound at RunConfig's c' and c''.
    The paper's PTF degree at these bindings is 4 t/eps; m is stream_budget's cap.
    """
    t = n ** (-0.5 - 0.2 * zeta)
    eps0 = n ** -1.5
    ratio = max(2, 2 * round(t / eps0 / 2.0))
    eps = t / ratio
    sigma = min(n ** -5.0, RunConfig.c_prime * eps
                / (RunConfig.c_dprime * t * math.sqrt(math.log(m_prime / delta))))
    cfg = RunConfig(kind="continuous", tag="alternative", n=n, sigma=sigma, t=t, eps=eps,
                    eta=1.0 / 3.0, m_prime=m_prime, delta=delta)
    return dataclasses.replace(cfg, m=stream_budget(cfg))


# name -> (description, RunConfig of (n, zeta, m_prime, delta)); desk-scale ignores zeta
PRESETS = {
    "desk-scale": ("n=8, t=0.2, t/eps=8, (t+eps)sigma=1/8: the validation scale",
                   lambda n, _, m_prime, delta: RunConfig(n=n, m_prime=m_prime, delta=delta)),
    "theorem-d": ("t=n^(-0.5-0.2 zeta), eps~n^(-1.5), eta=1/3: the hardness regime",
                  theorem_d_bindings),
}


def preset(name, n, zeta, m_prime, delta):
    """The RunConfig of the named preset at these settings."""
    return PRESETS[name][1](n, zeta, m_prime, delta)
