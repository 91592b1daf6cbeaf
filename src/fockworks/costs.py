"""Resource accounting: expected trials, the preparation-cost recursion,
and seeded Monte-Carlo estimation of protocol success rates.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import optics, protocols
from .fock import FockState, tensor
from .measure import _drawer
from .protocols import BosonicQubit, encode_qubit


def expected_trials(p: float) -> float:
    """Expected number of attempts until one success, 1/p."""
    if not 0 < p <= 1:
        raise ValueError(f"need 0 < p <= 1, got {p}")
    return 1.0 / p


@dataclass(frozen=True)
class CostModel:
    """Elementary-operation counts for one attempt of a protocol.

    elements counts splitters and phase shifters, detectors the measured
    modes, photons the fresh single bosons consumed; success_probability
    is the per-attempt heralding probability.
    """

    protocol: str
    elements: int
    detectors: int
    photons: int
    success_probability: float

    def __post_init__(self):
        if min(self.elements, self.detectors, self.photons) < 0:
            raise ValueError("operation counts must be >= 0")
        if not 0 < self.success_probability <= 1:
            raise ValueError("success probability must be in (0, 1]")

    def expected_cost(self) -> dict:
        """Per-success expected operation counts (counts / p)."""
        trials = expected_trials(self.success_probability)
        return {
            "expected_trials": trials,
            "elements": self.elements * trials,
            "detectors": self.detectors * trials,
            "photons": self.photons * trials,
        }


def cost_model(name: str, n: int = 1) -> CostModel:
    """Cost models for the named protocols, counted from their circuits."""
    name = name.lower()
    ns1_elements = len(protocols.ns1_network().sequence.elements)
    if name == "ns1":
        return CostModel("ns1", ns1_elements, 2, 1, 0.25)
    if name == "csign_ns":
        return CostModel("csign_ns", 2 + 2 * ns1_elements, 4, 2, 1 / 16)
    if name == "b4prime":
        return CostModel("b4prime", 4 + 2 * ns1_elements, 4, 4, 1 / 16)
    if name == "teleport":
        fourier = len(optics.decompose_reck(optics.fourier_matrix(n)).elements)
        return CostModel(f"teleport(n={n})", fourier, n + 1, n, n / (n + 1))
    raise ValueError(f"no cost model for {name!r}")


@dataclass
class TrialStats:
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def ci95_half_width(self) -> float:
        p = self.rate
        return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / self.trials)

    def within_3_sigma(self, p: float) -> bool:
        sigma = math.sqrt(p * (1 - p) / self.trials)
        return abs(self.rate - p) <= 3 * sigma

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.rate,
            "ci95": self.ci95_half_width,
        }


def trial_stats_csv(stats_list) -> str:
    """CSV emission of trial statistics, one row per run."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trials", "successes", "rate", "ci95"])
    for s in stats_list:
        writer.writerow([s.trials, s.successes, s.rate, s.ci95_half_width])
    return buf.getvalue()


def monte_carlo(trial, trials: int, seed: int) -> TrialStats:
    """Run ``trial(rng) -> bool`` repeatedly with per-trial derived streams.

    Trial i draws from default_rng((seed, i)), so runs are reproducible
    and trivially parallelizable by index; aggregation is a plain count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    successes = 0
    for i in range(trials):
        if trial(np.random.default_rng((seed, i))):
            successes += 1
    return TrialStats(trials=trials, successes=successes)


def _plus_plus() -> FockState:
    plus = encode_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
    return tensor(plus, plus)


def _branch_trial(result, weights, flags):
    """A trial that draws one branch by weight and reports its flag."""
    draw = _drawer(weights)

    def trial(rng):
        return flags[draw(rng.random())]

    trial.analytic = result.success_probability
    trial.result = result
    return trial


def make_trial(name: str, n: int = 3, seed_state=None):
    """Named trial factories for the standard protocols.

    The exact analysis runs once; it is kept as ``trial.result`` and its
    success probability as ``trial.analytic``, and each trial then draws
    one branch of it. Supported: 'ns1' and 'csign_ns' (success = the
    heralds fired), 'teleport' (success = the Fourier measurement did not
    project the input) and 'csign_teleported' (success = both
    teleportations went through), the last two at resource size n.
    """
    name = name.lower()
    q1, q2 = BosonicQubit(0, 1), BosonicQubit(2, 3)
    if name == "ns1":
        amp = 1 / math.sqrt(3)
        state = seed_state or FockState(1, {(0,): amp, (1,): amp, (2,): amp})
        res = protocols.apply_ns1(state, 0, rng=None)
    elif name == "csign_ns":
        res = protocols.csign_via_ns(seed_state or _plus_plus(), q1, q2, rng=None)
    elif name == "teleport":
        res = protocols.teleport_tn(seed_state or encode_single_rail(0.6, 0.8), 0, n, rng=None)
    elif name == "csign_teleported":
        res = protocols.csign_teleported(seed_state or _plus_plus(), q1, q2, n, rng=None)
    else:
        raise protocols.ProtocolError(f"no trial factory for {name!r}")
    if name in ("ns1", "csign_ns"):
        # heralded gadgets: the success branch against all the rest
        p = res.success_probability
        return _branch_trial(res, [p, 1 - p], [True, False])
    branches = res.details["branches"]
    return _branch_trial(res, [b["p"] for b in branches], [b["ok"] for b in branches])


def encode_single_rail(alpha0: complex, alpha1: complex) -> FockState:
    """One-mode qubit alpha0|0> + alpha1|1> used by the teleportation gadgets."""
    return FockState(1, {(0,): complex(alpha0), (1,): complex(alpha1)}).normalized()


# ---------------------------------------------------------------------------
# preparation-cost recursion
# ---------------------------------------------------------------------------


@dataclass
class RecursionTable:
    """log-space table of the preparation-cost bound and a naive model."""

    n_max: int
    c1: float
    c2: float
    base: float
    alpha: float
    log_s: list
    log_naive: list

    def s(self, n: int) -> float:
        return math.exp(self.log_s[n])

    def fits(self):
        """Least-squares residuals of log S against sqrt(n)*log(n) vs linear n."""
        ns = np.arange(2, self.n_max + 1)
        y = np.array(self.log_s[2:])
        sqrt_model = np.sqrt(ns) * np.log(ns)
        lin_model = ns.astype(float)
        res_sqrt = _residual(sqrt_model, y)
        res_lin = _residual(lin_model, y)
        return {"sqrt_n_log_n": res_sqrt, "linear_n": res_lin}

    def crossover(self) -> int | None:
        """First n where the recursion bound drops below the naive model."""
        for n in range(1, self.n_max + 1):
            if self.log_s[n] < self.log_naive[n]:
                return n
        return None

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "C1": self.c1,
            "C2": self.c2,
            "base": self.base,
            "alpha": self.alpha,
            "log_s": self.log_s[1:],
            "log_naive": self.log_naive[1:],
            "fits": self.fits(),
            "crossover": self.crossover(),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "log_s", "log_naive"])
        for n in range(1, self.n_max + 1):
            writer.writerow([n, self.log_s[n], self.log_naive[n]])
        return buf.getvalue()


def _residual(model, y):
    coef = float(np.dot(model, y) / np.dot(model, model))
    return float(np.sqrt(np.mean((y - coef * model) ** 2)))


def s_recursion_table(n_max: int, c1: float = 1.0, c2: float = 1.0,
                      base: float = 1.0, alpha: float = 1.0) -> RecursionTable:
    """Tabulate S(n) = (1 + C1/sqrt(n)) (S(n-1) + C2 S(ceil(sqrt(n)))).

    Evaluated in log space (the values are astronomically large long
    before n = 400). The naive 4^(alpha n) model is tabulated alongside
    for the crossover comparison. Growth is subexponential: log S(n)/n is
    eventually decreasing.
    """
    if n_max < 1 or c1 <= 0 or c2 <= 0 or base <= 0:
        raise ValueError("need n_max >= 1 and positive constants")
    log_s = [0.0] * (n_max + 1)
    log_s[1] = math.log(base)
    for n in range(2, n_max + 1):
        root = math.isqrt(n)
        if root * root < n:
            root += 1
        prev = log_s[n - 1]
        rec = math.log(c2) + log_s[root]
        log_s[n] = math.log1p(c1 / math.sqrt(n)) + np.logaddexp(prev, rec)
    log_naive = [alpha * n * math.log(4.0) for n in range(n_max + 1)]
    return RecursionTable(n_max, c1, c2, base, alpha, log_s, log_naive)
