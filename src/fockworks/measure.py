"""Destructive photodetection: branch enumeration, post-selection, sampling.

Measured modes are removed from the state (detection destroys the
photons); non-destructive projections are built by tensoring fresh
ancilla modes. Bucket and fan-out detectors merge count patterns into
outcome classes; the merged post_state is the renormalized projection
onto the class, which keeps coherence between merged patterns (adequate
for the heralding diagnostics this package needs).
"""

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import fock, optics
from .fock import FockState, ZeroStateError


@dataclass(frozen=True)
class Counter:
    """Ideal photon-number-resolving detector."""


@dataclass(frozen=True)
class Bucket:
    """Click/no-click detector: outcome 0 or 1 (one or more photons)."""


@dataclass(frozen=True)
class FanoutCounter:
    """Approximate counter: 1/sqrt(N) fan-out into N modes, each with a bucket.

    Outcome is the number of detectors that fire; it equals the photon
    number unless two or more photons bunch into one fan-out mode.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("fan-out requires N >= 1")


DetectorModel = Counter | Bucket | FanoutCounter


@dataclass(frozen=True)
class ConditionalOutcome:
    """One measurement branch.

    outcome: tuple of (mode, count) pairs; probability: exact branch
    probability; post_state: normalized state on the remaining modes, or
    None when the branch is impossible (probability 0).
    """

    outcome: tuple
    probability: float
    post_state: FockState | None

    @property
    def is_impossible(self) -> bool:
        return self.post_state is None

    def to_json(self) -> dict:
        return {
            "outcome": [[m, c] for m, c in self.outcome],
            "p": self.probability,
            "state": None if self.post_state is None else fock.state_to_json(self.post_state),
        }


def _check_modes(state: FockState, modes):
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    if any(m < 0 or m >= state.modes for m in modes):
        raise ValueError(f"modes {modes} out of range for {state.modes}-mode state")
    return modes


def _drop(occ, positions):
    return tuple(k for i, k in enumerate(occ) if i not in positions)


def _weight(state: FockState) -> float:
    total = state.norm() ** 2
    if total == 0:
        raise ZeroStateError("cannot measure a zero state")
    return total


def measure_modes(state: FockState, modes, model: DetectorModel = Counter()):
    """Exhaustive list of measurement branches, in canonical outcome order.

    Branch probabilities sum to 1 (the input is normalized internally).
    """
    modes = _check_modes(state, modes)
    if isinstance(model, FanoutCounter):
        return _measure_fanout(state, modes, model.n)
    pos = set(modes)
    total = _weight(state)
    groups: dict = {}
    for occ, amp in state.terms():
        counts = tuple(occ[m] for m in modes)
        if isinstance(model, Bucket):
            counts = tuple(min(c, 1) for c in counts)
        groups.setdefault(counts, {})
        rest = _drop(occ, pos)
        groups[counts][rest] = groups[counts].get(rest, 0j) + amp
    out = []
    for counts in sorted(groups):
        weight = sum(abs(a) ** 2 for a in groups[counts].values())
        p = weight / total
        post = FockState(state.modes - len(modes), groups[counts]).scaled(1 / math.sqrt(weight))
        out.append(ConditionalOutcome(tuple(zip(modes, counts)), p, post))
    return out


def postselect(state: FockState, modes, counts) -> ConditionalOutcome:
    """Project onto an exact count pattern.

    Probability 0 is a legitimate signal (is_impossible), not an error.
    """
    modes = _check_modes(state, modes)
    counts = tuple(int(c) for c in counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"negative counts {counts}")
    if len(counts) != len(modes):
        raise ValueError("counts and modes differ in length")
    pos = set(modes)
    total = _weight(state)
    kept: dict = {}
    for occ, amp in state.terms():
        if tuple(occ[m] for m in modes) == counts:
            rest = _drop(occ, pos)
            kept[rest] = kept.get(rest, 0j) + amp
    outcome = tuple(zip(modes, counts))
    weight = sum(abs(a) ** 2 for a in kept.values())
    if weight / total < 1e-24:
        return ConditionalOutcome(outcome, 0.0, None)
    post = FockState(state.modes - len(modes), kept).scaled(1 / math.sqrt(weight))
    return ConditionalOutcome(outcome, weight / total, post)


def _measure_fanout(state: FockState, modes, n):
    branches = [ConditionalOutcome((), 1.0, state)]
    mode_set = list(modes)
    for i, mode in enumerate(mode_set):
        # earlier measurements removed modes before this one
        shift = sum(1 for m in mode_set[:i] if m < mode)
        new = []
        for br in branches:
            outcomes, _ = fanout_count(br.post_state, mode - shift, n)
            for sub in outcomes:
                new.append(
                    ConditionalOutcome(
                        br.outcome + ((mode, sub.outcome[0][1]),),
                        br.probability * sub.probability,
                        sub.post_state,
                    )
                )
        branches = new
    return sorted(branches, key=lambda b: b.outcome)


def fanout_count(state: FockState, mode: int, n: int):
    """Approximate particle counting by 1/sqrt(N) fan-out onto N buckets.

    Returns (outcomes, misdetect_probability): outcomes list the branches
    by number of detectors that fired; misdetect_probability is the
    probability that some fan-out mode held two or more photons, which for
    a k-photon input equals 1 - (N)_k / N^k and is bounded by k(k-1)/2N.
    """
    _check_modes(state, [mode])
    if n < 1:
        raise ValueError("fan-out requires N >= 1")
    if n == 1:
        work = state
        detector_modes = [mode]
    else:
        work = fock.tensor(state, fock.vacuum(n - 1))
        spread = list(range(state.modes, state.modes + n - 1))
        work = optics.apply_unitary(work, optics.fourier_matrix(n - 1), [mode] + spread)
        detector_modes = [mode] + spread
    fine = measure_modes(work, detector_modes, Counter())
    misdetect = 0.0
    classes: dict = {}
    for br in fine:
        counts = [c for _, c in br.outcome]
        if max(counts) >= 2:
            misdetect += br.probability
        clicks = sum(1 for c in counts if c >= 1)
        bucket = classes.setdefault(clicks, [0.0, {}])
        bucket[0] += br.probability
        scale = math.sqrt(br.probability)
        for occ, amp in br.post_state.terms():
            bucket[1][occ] = bucket[1].get(occ, 0j) + amp * scale
    outcomes = []
    rest_modes = state.modes - 1
    for clicks in sorted(classes):
        p, amps = classes[clicks]
        post = FockState(rest_modes, amps).normalized()
        outcomes.append(ConditionalOutcome(((mode, clicks),), p, post))
    return outcomes, misdetect


def sample_outcome(state: FockState, modes, model: DetectorModel, seed) -> ConditionalOutcome:
    """Draw one branch with its exact probability; deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return sample_from_branches(measure_modes(state, modes, model), rng)


def sample_from_branches(branches, rng) -> ConditionalOutcome:
    """Draw one branch of ``branches`` with its probability."""
    return branches[_drawer([br.probability for br in branches])(rng.random())]


def _drawer(weights):
    """The draw over ``weights``: maps a uniform ``r`` to the index it selects.

    The index is that of the first branch whose cumulative weight, summed
    left to right, exceeds r; a draw at or above the last sum (rounding
    leaves the sum short of 1) selects the last branch. The sums are taken
    once, so a trial that draws many times reuses them. Every sampled path
    draws here.
    """
    cum = list(accumulate(weights))
    last = len(cum) - 1

    def draw(r) -> int:
        return min(bisect_right(cum, r), last)

    return draw


def dump_outcome(outcome: ConditionalOutcome) -> str:
    return json.dumps(outcome.to_json(), sort_keys=True, separators=(",", ":"))
