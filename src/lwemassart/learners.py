"""Massart learners and the paired-trial harness that scores them as LWE distinguishers."""

from dataclasses import dataclass

import numpy as np

from .instances import ptf_region


class PlantedRegionLearner:
    """Classifies by the threshold-polynomial region along the planted s."""

    def __init__(self, s, region):
        self.s = np.asarray(s, dtype=float) / np.linalg.norm(s)
        self.region = region

    def fit(self, x, y):
        return self

    def predict(self, x):
        return ptf_region(np.asarray(x, dtype=float) @ self.s, self.region)


class ConstantLearner:
    """Predicts +1 everywhere."""

    def fit(self, x, y):
        return self

    def predict(self, x):
        return np.ones(len(x), dtype=np.int8)


# learner name -> builder of (secret, the instance's +1 region); --learner admits these
# names, and the first is the default
LEARNERS = {
    "planted": PlantedRegionLearner,
    "constant": lambda *_: ConstantLearner(),
}


@dataclass(frozen=True)
class DistinguishReport:
    p_alt: float
    p_null: float
    advantage: float
    trials: int
    tau: float
    alt_errors: tuple
    null_errors: tuple
    degenerate_trials: int


def distinguish(make_instance, learner_factory, tau, trials, rng):
    """Repeated-trial decision harness.

    make_instance(tag, rng) must return (x, labels) for a fresh instance;
    each trial fits a fresh learner on the first half of each pair
    member and decides "alternative" when the held-out error is below
    tau.  The advantage is the alternative-decision rate gap.  Learners
    that output a constant on some test split are counted, not rejected.
    ValueError for trials < 1 or tau outside [0, 1] (before any instance is
    made), and for an instance of fewer than 2 samples.
    """
    if trials < 1:
        raise ValueError("distinguish needs trials >= 1")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("distinguish needs tau in [0, 1]: it bounds a held-out error rate")
    errors = {"alternative": [], "null": []}
    degenerate = 0
    for _ in range(trials):
        for tag, errs in errors.items():
            x, y = make_instance(tag, rng)
            if len(y) < 2:
                raise ValueError("distinguish needs m' >= 2 samples per instance: each is "
                                 "split into a training and a held-out half")
            cut = len(y) // 2
            learner = learner_factory()
            learner.fit(x[:cut], y[:cut])
            pred = np.asarray(learner.predict(x[cut:]))
            if np.all(pred == pred[0]):
                degenerate += 1
            errs.append(float(np.mean(pred != y[cut:])))
    p_alt, p_null = (float(np.mean(np.array(e) < tau)) for e in errors.values())
    return DistinguishReport(p_alt=p_alt, p_null=p_null, advantage=p_alt - p_null,
                             trials=trials, tau=tau, alt_errors=tuple(errors["alternative"]),
                             null_errors=tuple(errors["null"]), degenerate_trials=degenerate)
