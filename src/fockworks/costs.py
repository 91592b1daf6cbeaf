"""Resource accounting: expected trials, the preparation-cost recursion,
and seeded Monte-Carlo estimation of protocol success rates.
"""

import csv
import io
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import optics, protocols
from .fock import BudgetExceeded, FockState, tensor
from .measure import _drawer
from .protocols import BosonicQubit, encode_qubit

_CHUNK = 2**16  # uniforms per call of a Monte-Carlo trial: bounds memory for any trial count
#: Most trials ``monte_carlo`` runs: 10^7 trials of ``make_trial``'s ns1, csign_ns
#: or teleport (n = 3) took 0.21-0.43 s on a shared 2-vCPU host, so under a minute.
MAX_TRIALS = 10**9


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

    def __post_init__(self):
        if self.trials < 1 or not 0 <= self.successes <= self.trials:
            raise ValueError(f"trials must be >= 1 and successes in 0..trials, got {self.successes} "
                             f"of {self.trials}")

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
    """Count the successes of ``trials`` draws of ``trial(uniforms) -> flags``.

    Trial i takes the i-th double of the one stream default_rng(seed), which
    Generator(PCG64(seed).advance(i)).random() reproduces, so runs are
    reproducible and can be split by index. ``trial`` gets the uniforms in
    chunks of at most _CHUNK; chunking leaves the stream unchanged. The
    count is checked before the first draw (``check_trials``)."""
    check_trials(trials)
    rng = np.random.default_rng(seed)
    successes = 0
    for start in range(0, trials, _CHUNK):
        successes += int(np.count_nonzero(trial(rng.random(min(_CHUNK, trials - start)))))
    return TrialStats(trials=trials, successes=successes)


def check_trials(trials):
    """Refuse a trial count that is no integer of at least 1 (ValueError) or
    is past ``MAX_TRIALS`` (BudgetExceeded)."""
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be >= 1 and an integer, got {trials!r}")
    if trials > MAX_TRIALS:
        raise BudgetExceeded(f"{trials} trials requested; the limit is {MAX_TRIALS}")


def _plus_plus() -> FockState:
    plus = encode_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
    return tensor(plus, plus)


def trial_from(result):
    """A Monte-Carlo trial over the exact branches of ``result``.

    ``trial(uniforms)`` draws one branch per uniform (``measure._drawer``)
    and returns their ``ok`` flags, searching each run of branches with
    the same flag as one interval of the same cumulative sums. It reads the
    list's ``p`` and ``ok`` columns, so no branch dict is built;
    ``trial.result`` keeps the result and ``trial.analytic`` its success
    probability. Refused (ProtocolError) unless ``details["branches"]`` is
    the whole tree: its ``p`` sum to 1 and its ok mass equals
    ``success_probability``, each to 1e-10. A result
    without branches fails that, and so does one whose success probability
    is taken over more than its list (``tprime`` and ``p'`` with NS gates)
    or is conditional (the acceptance of ``distribute``).
    """
    branches = result.details.get("branches") or protocols._Branches([], [], None)
    p = result.success_probability
    total = protocols._added(branches.p)
    if p is None or abs(total - 1) > 1e-10 or abs(branches.mass() - p) > 1e-10:
        raise protocols.ProtocolError(
            "a result whose branch list is not the whole tree does not support --trials")
    # a run of branches with the same flag is searched as one interval
    ok = branches.ok
    ends = np.flatnonzero(ok[1:] != ok[:-1]).tolist() + [len(ok) - 1]
    draw = _drawer(branches.p.tolist(), ends)
    flags = ok[ends]

    def trial(uniforms):
        return flags[draw(uniforms)]

    trial.analytic = p
    trial.result = result
    return trial


def make_trial(name: str, n: int = 3, seed_state=None):
    """``trial_from`` the exact analysis of a standard protocol, run once:
    'ns1', 'csign_ns', 'teleport' and 'csign_teleported', the last two at
    resource size n, on ``seed_state`` or a fixed input."""
    name = name.lower()
    q1, q2 = BosonicQubit(0, 1), BosonicQubit(2, 3)
    if name == "ns1":
        amp = 1 / math.sqrt(3)
        res = protocols.apply_ns1(seed_state or FockState(1, {(0,): amp, (1,): amp, (2,): amp}), 0)
    elif name == "csign_ns":
        res = protocols.csign_via_ns(seed_state or _plus_plus(), q1, q2)
    elif name == "teleport":
        res = protocols.teleport_tn(seed_state or encode_single_rail(0.6, 0.8), 0, n)
    elif name == "csign_teleported":
        res = protocols.csign_teleported(seed_state or _plus_plus(), q1, q2, n)
    else:
        raise protocols.ProtocolError(f"no trial factory for {name!r}")
    return trial_from(res)


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
    if not isinstance(n_max, Integral) or n_max < 1 or c1 <= 0 or c2 <= 0 or base <= 0:
        raise ValueError(f"need an integer n_max >= 1 and positive constants, got n_max = {n_max!r}")
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
