"""Seeded workloads: inputs, operations and per-operation correctness checks.

Every input is generated from the seed before timing starts. An op is one
call a user makes (a protocol analysis, a Monte-Carlo batch, a sampled
trajectory or an evolution); the runner issues op i + 1 only after op i
returns. ``Op.run`` is the timed part; ``Op.check`` runs afterwards,
untimed, and returns the op's deterministic work counts or raises
``CheckFailed``.

Library functions are looked up on their modules at call time, so a
traced run sees the wrappers the tracer installs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from fockworks import costs, fock, optics, protocols
from fockworks.protocols import BosonicQubit

EXACT_TOL = 1e-10
# Monte-Carlo rates must lie within this many standard deviations of the
# analytic value. 6 sigma keeps the chance of a false failure below 1e-8
# per batch, so no seed or sample-stream change fails an op by chance over
# the thousands of batches a benchmark campaign runs.
MC_SIGMAS = 6.0

SIZES = {
    "full": {
        "exact_branches": {"teleport_n": 8, "csign_n": 4, "traced_cycles": 1},
        "sampling": {"mc_n": 3, "trials": {"ns1": 4000, "csign_ns": 8000, "teleport": 4000},
                     "traj_n": 6, "traj_per_cycle": 2, "traj_inputs": 8, "traced_cycles": 4},
        "evolution": {"modes": 8, "photons": 5, "terms": 40, "spot": 4, "traced_cycles": 16},
    },
    "tiny": {
        "exact_branches": {"teleport_n": 2, "csign_n": 1, "traced_cycles": 1},
        "sampling": {"mc_n": 3, "trials": {"ns1": 200, "csign_ns": 400, "teleport": 200},
                     "traj_n": 2, "traj_per_cycle": 2, "traj_inputs": 2, "traced_cycles": 1},
        "evolution": {"modes": 4, "photons": 2, "terms": 4, "spot": 2, "traced_cycles": 2},
    },
}


class CheckFailed(Exception):
    """An op returned a wrong result."""


@dataclass
class Op:
    kind: str
    run: object  # () -> output, timed
    check: object  # output -> dict of work counts, untimed
    sampled: bool = False  # draws a sampled trajectory


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, what):
    _require(abs(value - expected) <= EXACT_TOL, f"{what} = {value!r}, expected {expected!r}")


def _random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


class Workload:
    """A cycle of op kinds over per-kind input pools.

    Op i has kind ``cycle[i % len(cycle)]``; each kind draws inputs from
    its own pool in order and wraps round when the pool runs out.
    """

    name = ""
    unit = ""  # the unit of work counted by work_per_s
    must_hit = ()  # spans a traced pass must record at least once

    def __init__(self, seed, seconds, size):
        self.cfg = SIZES[size][self.name]
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.cycle = []

    def op(self, i):
        kind = self.cycle[i % len(self.cycle)]
        slot = i // len(self.cycle) * self.cycle.count(kind) + self.cycle[: i % len(self.cycle)].count(kind)
        return self.make_op(kind, slot)

    def warmup(self):
        """An op on an input of its own, run untimed before the measurement."""
        return self.make_op(self.cycle[0], -1)

    def finish(self, done):
        """Checks made once after the measurement; ``done`` lists the op
        indices run. Returns {op index: failure message}."""
        return {}

    @property
    def traced_ops(self):
        return self.cfg["traced_cycles"] * len(self.cycle)


class ExactBranches(Workload):
    """Exact branch enumeration of teleport_tn and teleported csign."""

    name = "exact_branches"
    unit = "branches"
    must_hit = ("protocols.teleport_tn", "protocols.csign_teleported", "optics.apply_unitary",
                "optics.expand", "measure.measure_modes", "fock.construct", "fock.phase_on_mode")

    def __init__(self, seed, seconds, size):
        super().__init__(seed, seconds, size)
        pool = max(8, 4 * seconds)
        self.cycle = [f"teleport_tn(n={self.cfg['teleport_n']})",
                      f"csign_teleported(n={self.cfg['csign_n']})"]
        rng = self.rng
        self.singles = [costs.encode_single_rail(*_random_qubit(rng)) for _ in range(pool + 1)]
        self.pairs = [fock.tensor(protocols.encode_qubit(*_random_qubit(rng)),
                                  protocols.encode_qubit(*_random_qubit(rng)))
                      for _ in range(pool + 1)]

    def make_op(self, kind, slot):
        if kind.startswith("teleport_tn"):
            n = self.cfg["teleport_n"]
            state = self.singles[slot % len(self.singles)]
            return Op(kind, lambda: protocols.teleport_tn(state, 0, n),
                      lambda res: self._check_teleport(res, n))
        n = self.cfg["csign_n"]
        state = self.pairs[slot % len(self.pairs)]
        return Op(kind, lambda: protocols.csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), n),
                  lambda res: self._check_csign(res, n))

    @staticmethod
    def _branch_sum(res):
        branches = res.details["branches"]
        _close(sum(b["p"] for b in branches), 1.0, "sum of branch probabilities")
        return len(branches)

    def _check_teleport(self, res, n):
        count = self._branch_sum(res)
        _close(res.details["failure_probability"], 1 / (n + 1), "failure probability")
        _close(res.success_probability, n / (n + 1), "success probability")
        _close(res.output_state.norm(), 1.0, "output norm")
        return {"branches": count}

    def _check_csign(self, res, n):
        count = self._branch_sum(res)
        _require(res.succeeded, "no success branch")
        _close(res.success_probability, (n / (n + 1)) ** 2, "success probability")
        return {"branches": count}


class Sampling(Workload):
    """Seeded Monte Carlo after the criterion-13 plan, plus sampled
    trajectories of teleport_tn."""

    name = "sampling"
    unit = "trials"
    must_hit = ("costs.make_trial", "costs.monte_carlo", "costs.trial", "protocols.teleport_tn",
                "measure.measure_modes", "optics.apply_unitary", "optics.expand", "fock.construct")
    ANALYTIC = {"ns1": lambda n: 0.25, "csign_ns": lambda n: 1 / 16, "teleport": lambda n: n / (n + 1)}

    def __init__(self, seed, seconds, size):
        super().__init__(seed, seconds, size)
        cfg = self.cfg
        self.traj_kind = f"teleport_tn(n={cfg['traj_n']}, rng)"
        self.cycle = [f"monte_carlo({name})" for name in cfg["trials"]]
        self.cycle += [self.traj_kind] * cfg["traj_per_cycle"]
        pool = max(8, 16 * seconds)
        rng = self.rng
        self.mc_inputs = {
            name: [(self._mc_state(name, rng), int(rng.integers(2**31))) for _ in range(pool + 1)]
            for name in cfg["trials"]
        }
        self.traj_seeds = [int(rng.integers(2**31)) for _ in range(2 * pool + 1)]
        # each trajectory input is analysed exactly once, here, so every
        # sampled trajectory can be matched against its exact branches
        self.traj_inputs = []
        for _ in range(cfg["traj_inputs"]):
            state = costs.encode_single_rail(*_random_qubit(rng))
            exact = protocols.teleport_tn(state, 0, cfg["traj_n"])
            by_pattern = {tuple(b["pattern"]): b for b in exact.details["branches"]}
            self.traj_inputs.append((state, by_pattern))
        self.mc_results = {}

    @staticmethod
    def _mc_state(name, rng):
        if name == "ns1":
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            return fock.FockState(1, {(k,): a for k, a in enumerate(v)}).normalized()
        if name == "csign_ns":
            return fock.tensor(protocols.encode_qubit(*_random_qubit(rng)),
                               protocols.encode_qubit(*_random_qubit(rng)))
        return costs.encode_single_rail(*_random_qubit(rng))

    def _batch(self, name, slot):
        state, seed = self.mc_inputs[name][slot % len(self.mc_inputs[name])]
        trial = costs.make_trial(name, n=self.cfg["mc_n"], seed_state=state)
        return trial.analytic, costs.monte_carlo(trial, self.cfg["trials"][name], seed)

    def make_op(self, kind, slot):
        if kind == self.traj_kind:
            state, by_pattern = self.traj_inputs[slot % len(self.traj_inputs)]
            seed = self.traj_seeds[slot % len(self.traj_seeds)]
            n = self.cfg["traj_n"]
            return Op(kind, lambda: protocols.teleport_tn(state, 0, n, rng=np.random.default_rng(seed)),
                      lambda res: self._check_trajectory(res, by_pattern), sampled=True)
        name = kind[len("monte_carlo("):-1]
        return Op(kind, lambda: self._batch(name, slot),
                  lambda out: self._check_batch(name, slot, out))

    def _check_batch(self, name, slot, out):
        analytic, stats = out
        _close(analytic, self.ANALYTIC[name](self.cfg["mc_n"]), f"{name} analytic probability")
        sigma = math.sqrt(analytic * (1 - analytic) / stats.trials)
        _require(abs(stats.rate - analytic) <= MC_SIGMAS * sigma,
                 f"{name} rate {stats.rate} outside {MC_SIGMAS:g} sigma of {analytic}")
        self.mc_results.setdefault((name, slot), stats.successes)
        return {"trials": stats.trials}

    @staticmethod
    def _check_trajectory(res, by_pattern):
        pattern = tuple(res.trace[-1]["outcome"])
        branch = by_pattern.get(pattern)
        _require(branch is not None, f"sampled pattern {pattern} is not an exact branch")
        _require(branch["ok"] == res.succeeded, f"success flag differs for pattern {pattern}")
        _require(fock.states_close(branch["state"], res.output_state, EXACT_TOL),
                 f"sampled state differs from exact branch {pattern}")
        return {"trajectories": 1}

    def finish(self, done):
        """Re-run the first batch of each protocol: same input and seed must
        give the same count (per-seed determinism)."""
        failures = {}
        for name in self.cfg["trials"]:
            kind = f"monte_carlo({name})"
            first = next((i for i in done if self.cycle[i % len(self.cycle)] == kind), None)
            if first is None:
                continue
            slot = first // len(self.cycle)
            if (name, slot) not in self.mc_results:
                continue  # the op itself already failed
            _, stats = self._batch(name, slot)
            if stats.successes != self.mc_results[(name, slot)]:
                failures[first] = f"{name} batch is not deterministic for its seed"
        return failures


class Evolution(Workload):
    """Random multi-term superpositions under Haar-random unitaries."""

    name = "evolution"
    unit = "terms"
    must_hit = ("optics.apply_unitary", "optics.expand", "optics.transition_amplitude",
                "fock.construct")

    def __init__(self, seed, seconds, size):
        super().__init__(seed, seconds, size)
        cfg = self.cfg
        modes, photons = cfg["modes"], cfg["photons"]
        self.cycle = [f"apply_unitary({cfg['terms']} terms, {photons} photons, {modes} modes)"]
        basis = [c for c in itertools.product(range(photons + 1), repeat=modes) if sum(c) == photons]
        rng = self.rng
        self.inputs = []
        for _ in range(max(8, 64 * seconds) + 1):
            picks = rng.choice(len(basis), cfg["terms"], replace=False)
            amps = rng.normal(size=cfg["terms"]) + 1j * rng.normal(size=cfg["terms"])
            state = fock.FockState(modes, {basis[j]: a for j, a in zip(picks, amps)}).normalized()
            u = optics.random_unitary(modes, rng)
            spots = [basis[j] for j in rng.choice(len(basis), cfg["spot"], replace=False)]
            self.inputs.append((state, u, spots))

    def make_op(self, kind, slot):
        state, u, spots = self.inputs[slot % len(self.inputs)]

        def run():
            out = optics.apply_unitary(state, u)
            oracle = [sum(a * optics.transition_amplitude(u, occ, spot) for occ, a in state.terms())
                      for spot in spots]
            return out, oracle

        return Op(kind, run, lambda out: self._check(state, spots, out))

    def _check(self, state, spots, out):
        evolved, oracle = out
        _close(evolved.norm(), 1.0, "output norm")
        _require(evolved.total_photons() == {self.cfg["photons"]}, "photon number not conserved")
        for spot, expected in zip(spots, oracle):
            _require(abs(evolved.amplitude(spot) - expected) <= EXACT_TOL,
                     f"amplitude of {spot} disagrees with the permanent oracle")
        return {"terms_in": state.term_count(), "terms": evolved.term_count()}


WORKLOADS = {w.name: w for w in (ExactBranches, Sampling, Evolution)}
