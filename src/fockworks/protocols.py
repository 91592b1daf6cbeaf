"""Post-selected and teleported gate protocols on dual-rail bosonic qubits.

Qubit convention: logical |0> is one photon in the *second* mode of the
pair (occupation 01), logical |1> is one photon in the first (10).

Every gadget returns a ProtocolResult. With ``rng=None`` the gadget is
evaluated analytically: the returned output is the post-selected success
branch and ``details["branches"]`` enumerates every measurement outcome
with its exact probability. With an ``rng`` the measurement outcomes are
sampled instead, one trajectory end to end, drawn stage by stage. Every
detection is one stage of ``_detect``: it counts some modes (after a
mode unitary, for the Fourier multiports), classifies each count pattern
into a branch with its feed-forward corrections, and returns every
branch, or with an rng only the drawn one, so a sampled run projects one
branch per stage. A gadget of two stages lists composite branches: the
first stage's failures and the second stage's branches on each
first-stage success, ``p`` the product of the two. An exact detection
behind a unitary takes its records from ``measure._evolved_groups``: a
large one, and the second detection of every first-stage success of a
teleported gate together, in one array pass, with the records one
evolution and one ``measure_modes`` per state would give, bit for bit.
A sampled detection
behind a unitary draws its pattern through ``measure._sample_detection``,
so the trajectory neither evolves nor groups the whole state; its branch
equals the exact branch of the same pattern to 1e-10, not bit for bit.
One resolver picks the branch (``_resolve``) and one builder turns it
into the result (``_result``), and every protocol writes trace steps.

A branch is a plain dict. Every branch carries ``p`` (its exact
probability), ``ok`` (whether the gadget succeeded on it) and ``state``
(the post-measurement state, corrections applied, built when first read
in an exact run), plus ``corrections`` (the ``("phase", mode, angle)`` /
``("swap", a, b)`` feed-forward applied) when a correction was applied.
Gadgets add their own keys: the detected ``pattern`` (``pattern1``/
``pattern2`` per teleportation stage), ``k1``/``k2``, ``parity``,
``sign``, ``accepted``, ``stage`` and ``projected``, and the
probabilities of their stages (``p1``/``p2``, ``p_parity``/``p_sign``,
the (p, pattern) ``heralds`` of the sign-flip pair).

Phase corrections after Fourier-multiport measurements follow the
detected pattern {r_j}: the |1> component of the target mode is rotated
by prod_j w^{j r_j} (w the primitive (n+1)-th root of unity), plus pi
flips keyed to the detected totals for the gate-teleportation variants.
These formulas are exercised against brute-force branch projection in the
test suite before anything composes on top of them.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import fock, measure
from .fock import FockError, FockState, number_state, tensor
from .measure import (
    IMPOSSIBLE,
    _drawer,
    _projection,
    _sample_detection,
    _weight,
    measure_modes,
)
from .optics import (
    BeamSplitter,
    ElementSequence,
    ModeUnitary,
    apply_unitary,
    compose,
    decompose_reck,
    element_matrix,
    fourier_matrix,
)

BALANCED = math.pi / 4


class UnsupportedInputError(FockError):
    """Input state outside a gadget's admissible support."""


class ProtocolError(FockError):
    """Unknown protocol, resource kind, or strategy."""


# ---------------------------------------------------------------------------
# results and bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class ProtocolResult:
    """Outcome of one gadget application.

    success_probability is the exact analytic value when available (None
    in sampled trajectories, where only the realized branch is computed).
    corrections lists the phase shifts / mode swaps that were applied;
    failure_info identifies the detected projection on failure.
    """

    succeeded: bool
    success_probability: float | None
    output_state: FockState | None
    corrections: list = field(default_factory=list)
    failure_info: dict | None = None
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _shift_index(index: int, measured_sorted) -> int:
    """Index of a surviving mode after the given sorted modes are removed."""
    drop = 0
    for m in measured_sorted:
        if m < index:
            drop += 1
        elif m == index:
            raise ValueError(f"mode {index} was measured away")
    return index - drop


def _detect(work, modes, classify, rng, unitary=None):
    """One detection stage: count every mode of ``modes``, after ``unitary``
    acts on them when one is given.

    Returns the stage's branches, ``{"pattern": counts, "p": p,
    **classify(counts, k, s), "state": post}``, ``k`` the photons counted
    and ``s`` = sum_j j*r_j of the pattern {r_j}, ``post`` corrected by
    classify's ``corrections``: with ``rng=None`` every count pattern, in
    canonical order, each ``post`` built when first read; with an rng the
    one drawn branch, built at once, drawn by ``measure._sample_detection``
    behind a unitary (``work`` is not evolved), else by one draw over the
    records. An exact detection behind a unitary takes its records from
    ``measure._evolved_groups``, which runs a large one as one packed-key
    pass and a small one as ``apply_unitary`` and ``measure_modes``.
    """
    if unitary is None:
        records = measure_modes(work, modes, lazy=True)
        if rng is not None:
            i = _drawer(records.p)(rng.random())
            records = records[i:i + 1]
    elif rng is None:
        records = next(measure._evolved_groups([work], unitary, modes))
    else:
        records = _sample_detection(work, unitary, modes, rng)
    return _classified(records, classify, rng)


def _classified(records, classify, rng):
    """The branches of a stage's ``measure._Records``, as ``_detect``
    returns them, built from the records' columns: ``k`` and ``s`` of every
    pattern from one product over the count rows, one ``_BranchState`` per
    exact branch."""
    counts = records.counts
    # k = sum_j r_j and s = sum_j j*r_j of every pattern, as one product
    ks, ss = (np.array([[1] * counts.shape[1], range(counts.shape[1])]) @ counts.T).tolist()
    # zip over the columns gives each pattern as a tuple, with no row lists
    branches = [{"pattern": pattern, "p": p, **classify(pattern, k, s)}
                for pattern, p, k, s in zip(zip(*counts.T.tolist()), records.p, ks, ss)]
    modes, block = records.modes, records.block
    for branch, weight, row in zip(branches, records.weight, records.rows):
        fixes = branch.get("corrections", ())
        branch["state"] = (_BranchState(modes, block, row, weight, fixes) if rng is None
                           else _built(modes, block(row), weight, fixes))
    return branches


def _built(modes, group, weight, corrections):
    """A branch's kept amplitudes ``group``, of squared norm ``weight``, projected and corrected."""
    return _corrected(measure._projection(modes, group, weight), corrections)


class _BranchState(FockState):
    """An exact branch's post-state: until its terms are first read, the
    stage's ``block`` and this branch's ``row`` in it, which decode its kept
    amplitudes, their squared norm ``weight`` and its ``corrections``; the
    first read builds it as a sampled branch is built, ``_built(...)``."""

    __slots__ = ("_block", "_row", "_weight", "_corrections")

    def __init__(self, modes, block, row, weight, corrections):
        self.modes, self._block, self._row = modes, block, row
        self._weight, self._corrections = weight, corrections

    def __getattr__(self, name):
        # reached only while the ``_amp`` slot is unset
        if name != "_amp":
            raise AttributeError(name)
        self._amp = _built(self.modes, self._block(self._row), self._weight, self._corrections)._amp
        del self._block, self._row, self._weight, self._corrections
        return self._amp


def _corrected(state, corrections):
    """``state`` after the feed-forward ``corrections``, in order."""
    for kind, a, b in corrections:
        state = fock.phase_on_mode(state, a, b) if kind == "phase" else fock.swap_modes(state, a, b)
    return state


def _resolve(branches, rng):
    """The branch a run lands on.

    With an rng: the one branch the run drew. Without one: the
    post-selected view, the first branch with ``ok`` set, or the likeliest
    branch when none succeeds (an input with no success channel).
    """
    if rng is not None:
        (chosen,) = branches
        return chosen
    return next((b for b in branches if b["ok"]), None) or max(branches, key=lambda b: b["p"])


def _result(chosen, p, details, trace, failure=None) -> ProtocolResult:
    """The ProtocolResult of the resolved branch, its state built; ``failure(chosen)``
    builds the failure_info, for the chosen branch only."""
    ok = chosen["ok"]
    chosen["state"].term_count()
    return ProtocolResult(ok, p, chosen["state"], corrections=chosen.get("corrections", []),
                          failure_info=None if ok else failure(chosen), trace=trace,
                          details=details)


def _trace_step(trace, label, kind, p=1.0, **extra):
    cum = trace[-1]["cum_p"] * p if trace else p
    entry = {"step": label, "kind": kind, "p": p, "cum_p": cum}
    entry.update(extra)
    trace.append(entry)


# ---------------------------------------------------------------------------
# dual-rail qubits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BosonicQubit:
    """A dual-rail qubit living on modes (a, b) of a host state."""

    a: int
    b: int


def encode_qubit(alpha0: complex, alpha1: complex) -> FockState:
    """Two-mode state alpha0|01> + alpha1|10>."""
    norm = abs(alpha0) ** 2 + abs(alpha1) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise UnsupportedInputError(f"qubit amplitudes not normalized: |a0|^2+|a1|^2 = {norm}")
    return FockState(2, {(0, 1): complex(alpha0), (1, 0): complex(alpha1)})


def qubit_coherence_weight(state: FockState, q: BosonicQubit) -> float:
    """Weight of the state inside the dual-rail span of (q.a, q.b)."""
    total = state.norm() ** 2
    good = sum(
        abs(amp) ** 2
        for occ, amp in state.terms()
        if (occ[q.a], occ[q.b]) in ((0, 1), (1, 0))
    )
    return good / total


def require_coherent(state: FockState, q: BosonicQubit, tol: float = 1e-10):
    w = qubit_coherence_weight(state, q)
    if abs(w - 1.0) > tol:
        raise UnsupportedInputError(f"modes ({q.a},{q.b}) are not a coherent dual-rail qubit (weight {w})")


def factor_out(state: FockState, modes) -> FockState:
    """State restricted to ``modes`` when everything else is a fixed product."""
    modes = list(modes)
    rest = [m for m in range(state.modes) if m not in modes]
    groups = {}
    for occ, amp in state.terms():
        env = tuple(occ[m] for m in rest)
        groups.setdefault(env, {})[tuple(occ[m] for m in modes)] = amp
    if len(groups) != 1:
        raise FockError(f"state does not factor over modes {modes}")
    (amps,) = groups.values()
    return FockState(len(modes), amps)


def qubit_rotation(state: FockState, q: BosonicQubit, theta: float) -> FockState:
    """Logical rotation [[cos,-sin],[sin,cos]] on (|0>_q, |1>_q)."""
    return apply_unitary(state, element_matrix(BeamSplitter(0, 1, -theta)), [q.a, q.b])


def hadamard(state: FockState, q: BosonicQubit) -> FockState:
    """Exact logical Hadamard: balanced splitter then a pi phase on mode a."""
    out = apply_unitary(state, element_matrix(BeamSplitter(0, 1, BALANCED)), [q.a, q.b])
    return fock.phase_on_mode(out, q.a, math.pi)


# ---------------------------------------------------------------------------
# resource states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedResource:
    kind: str
    n: int | None
    state: FockState
    roles: dict


def _unary_block(n: int, j: int) -> tuple:
    """Occupations |1>^j |0>^{n-j} ; |0>^j |1>^{n-j} on 2n modes."""
    return (1,) * j + (0,) * (n - j) + (0,) * j + (1,) * (n - j)


def make_resource(kind: str, n: int | None = None, parity: int = 0) -> PreparedResource:
    """Entangled resource states by closed formula (normalized).

    Kinds: 'e', 'b4prime', 'tn', 'tnprime', 'tpn', 'pnprime'. The 'pnprime'
    kind takes parity=0 for the even variant and 1 for the odd one.
    """
    kind = kind.lower()
    if kind == "e":
        amps = {(0, 1, 1, 0): 1 / math.sqrt(2), (1, 0, 0, 1): -1 / math.sqrt(2)}
        return PreparedResource("e", None, FockState(4, amps), {"pair_a": (0, 1), "pair_b": (2, 3)})
    if kind == "b4prime":
        amps = {
            (1, 0, 1, 0): 0.5,
            (0, 1, 1, 0): 0.5,
            (1, 0, 0, 1): 0.5,
            (0, 1, 0, 1): -0.5,
        }
        return PreparedResource("b4prime", None, FockState(4, amps), {"pair_a": (0, 1), "pair_b": (2, 3)})
    if n is None or n < 1:
        raise ProtocolError(f"resource {kind!r} needs n >= 1, got {n}")
    if kind == "tn":
        amps = {_unary_block(n, j): 1 / math.sqrt(n + 1) for j in range(n + 1)}
        roles = {"first": tuple(range(n)), "last": tuple(range(n, 2 * n))}
        return PreparedResource("tn", n, FockState(2 * n, amps), roles)
    if kind == "tnprime":
        amps = {}
        for j in range(n + 1):
            for i in range(n + 1):
                sign = -1.0 if ((n - j) * (n - i)) % 2 else 1.0
                amps[_unary_block(n, j) + _unary_block(n, i)] = sign / (n + 1)
        roles = {
            "first_x": tuple(range(n)),
            "last_x": tuple(range(n, 2 * n)),
            "first_y": tuple(range(2 * n, 3 * n)),
            "last_y": tuple(range(3 * n, 4 * n)),
        }
        return PreparedResource("tnprime", n, FockState(4 * n, amps), roles)
    if kind == "tpn":
        amps = {}
        for j in range(n + 1):
            anc = ((n - j) % 2, (n - j + 1) % 2)
            amps[_unary_block(n, j) + anc] = 1 / math.sqrt(n + 1)
        roles = {
            "first": tuple(range(n)),
            "last": tuple(range(n, 2 * n)),
            "ancilla": (2 * n, 2 * n + 1),
        }
        return PreparedResource("tpn", n, FockState(2 * n + 2, amps), roles)
    if kind == "pnprime":
        pairs = [(j, i) for j in range(n + 1) for i in range(n + 1) if (i + j) % 2 == parity % 2]
        amps = {}
        for j, i in pairs:
            amps[_unary_block(n, j) + _unary_block(n, i)] = 1 / math.sqrt(len(pairs))
        roles = {
            "first_x": tuple(range(n)),
            "last_x": tuple(range(n, 2 * n)),
            "first_y": tuple(range(2 * n, 3 * n)),
            "last_y": tuple(range(3 * n, 4 * n)),
            "parity": parity % 2,
        }
        return PreparedResource("pnprime", n, FockState(4 * n, amps), roles)
    raise ProtocolError(f"unknown resource kind {kind!r}")


# ---------------------------------------------------------------------------
# the nondeterministic sign gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ns1Network:
    """Three-mode network realizing the nonlinear sign flip.

    Prepare the ancilla modes (1, 2) in counts (1, 0), run the elements,
    accept when the ancilla detectors read (1, 0) again.
    """

    sequence: ElementSequence
    ancilla_modes: tuple = (1, 2)
    ancilla_counts: tuple = (1, 0)
    accept: tuple = (1, 0)


def ns1_unitary() -> ModeUnitary:
    """The symmetric 3x3 matrix whose post-selected action is diag(1/2, 1/2, -1/2)."""
    s2 = math.sqrt(2.0)
    return ModeUnitary(
        [
            [1 - s2, 2 ** -0.25, math.sqrt(3 / s2 - 2)],
            [2 ** -0.25, 0.5, 0.5 - 1 / s2],
            [math.sqrt(3 / s2 - 2), 0.5 - 1 / s2, s2 - 0.5],
        ]
    )


@cache
def ns1_network() -> Ns1Network:
    return Ns1Network(sequence=decompose_reck(ns1_unitary()))


@cache
def _ns1_effective() -> ModeUnitary:
    # gadgets run the recomposed element network, not the target matrix
    return compose(ns1_network().sequence)


def _ns_stage(state: FockState, mode: int, rng):
    """The sign flip's detection: its ancillas adjoined after ``state``'s
    modes, the network run on ``mode`` and them, the ancillas counted.
    Returns ``_detect``'s branches; ``ok`` is the accepted herald."""
    if state.max_occupation(mode) > 2:
        raise UnsupportedInputError(f"mode {mode} holds more than 2 photons")
    m = state.modes
    network = ns1_network()
    work = apply_unitary(tensor(state, number_state(network.ancilla_counts)), _ns1_effective(),
                         [mode, m, m + 1])
    return _detect(work, [m, m + 1], lambda pattern, *_: {"ok": pattern == network.accept}, rng)


def _ns_trace(trace, mode, m, p, pattern):
    """The trace steps of one sign flip on ``mode`` of an ``m``-mode state."""
    _trace_step(trace, "ns1-network", "element", modes=[mode, m, m + 1])
    _trace_step(trace, "ns1-herald", "measure", p=p, outcome=list(pattern))


def apply_ns1(state: FockState, mode: int, rng=None) -> ProtocolResult:
    """Nonlinear sign flip on one mode, heralded by the ancilla detectors.

    On success the mode's |2> amplitude changes sign; the success
    probability is exactly 1/4 for any admissible (<= 2 photon) input.
    """
    branches = _ns_stage(state, mode, rng)
    chosen = _resolve(branches, rng)
    trace = []
    _ns_trace(trace, mode, state.modes, chosen["p"], chosen["pattern"])
    return _result(chosen, sum(b["p"] for b in branches if b["ok"]) if rng is None else None,
                   {"branches": branches} if rng is None else {}, trace,
                   lambda b: {"detector": "ns1-ancilla", "outcome": b["pattern"]})


# ---------------------------------------------------------------------------
# conditional sign gates
# ---------------------------------------------------------------------------


def csign_modes_ns(state: FockState, mode_x: int, mode_y: int, rng=None) -> ProtocolResult:
    """Mode-level conditional sign via two heralded sign flips (p = 1/16).

    Success branch: amplitude sign flips exactly when both modes hold a
    photon. Works on the dual-rail a-modes to give the two-qubit gate.
    The branch list holds the ns-x failures, then the ns-y branches on
    the ns-x success; each keeps its ``stage`` and its ``heralds``, the
    (p, pattern) of each detection it passed through.
    """
    work = apply_unitary(state, element_matrix(BeamSplitter(0, 1, BALANCED)), [mode_x, mode_y])
    xs = _ns_stage(work, mode_x, rng)
    branches = [dict(b, stage="ns-x", heralds=[(b["p"], b["pattern"])]) for b in xs if not b["ok"]]
    for bx in filter(lambda b: b["ok"], xs):
        for by in _ns_stage(bx["state"], mode_y, rng):
            by.update(stage="ns-y", p=bx["p"] * by["p"],
                      heralds=[(bx["p"], bx["pattern"]), (by["p"], by["pattern"])])
            if by["ok"]:
                by["state"] = apply_unitary(by["state"], element_matrix(BeamSplitter(0, 1, -BALANCED)),
                                            [mode_x, mode_y])
            branches.append(by)
    chosen = _resolve(branches, rng)
    trace = []
    _trace_step(trace, "mix", "element", modes=[mode_x, mode_y])
    for mode, (p, pattern) in zip((mode_x, mode_y), chosen["heralds"]):
        _ns_trace(trace, mode, state.modes, p, pattern)
    if chosen["ok"]:
        _trace_step(trace, "unmix", "element", modes=[mode_x, mode_y])
    return _result(chosen, sum(b["p"] for b in branches if b["ok"]) if rng is None else None,
                   {"branches": branches} if rng is None else {}, trace,
                   lambda b: {"stage": b["stage"], "detector": "ns1-ancilla", "outcome": b["pattern"]})


def csign_via_ns(state: FockState, q1: BosonicQubit, q2: BosonicQubit, rng=None) -> ProtocolResult:
    """Two-qubit conditional sign on dual-rail qubits, success 1/16."""
    require_coherent(state, q1)
    require_coherent(state, q2)
    return csign_modes_ns(state, q1.a, q2.a, rng=rng)


def csign_ideal_modes(state: FockState, mode_x: int, mode_y: int) -> FockState:
    """Oracle conditional sign: phase (-1)^(n_x n_y)."""
    fock._check_modes(state.modes, [mode_x])
    fock._check_modes(state.modes, [mode_y])
    amps = {}
    for occ, amp in state.terms():
        sign = -1.0 if (occ[mode_x] * occ[mode_y]) % 2 else 1.0
        amps[occ] = amp * sign
    return FockState(state.modes, amps, tol=0.0)


def apply_csign_modes(state, mode_x, mode_y, strategy="ideal", n=1, rng=None) -> ProtocolResult:
    """Mode-level conditional sign with a pluggable execution strategy.

    strategy: 'ideal' (oracle phase), 'ns' (two heralded sign flips,
    p=1/16), or 'teleported' (gate teleportation through the modified
    entangled resource, p=(n/(n+1))^2; targets are relabeled back onto
    the original mode positions).
    """
    if strategy == "ideal":
        trace = []
        _trace_step(trace, "csign-ideal", "gate", modes=[mode_x, mode_y])
        return ProtocolResult(True, 1.0, csign_ideal_modes(state, mode_x, mode_y), trace=trace)
    if strategy == "ns":
        return csign_modes_ns(state, mode_x, mode_y, rng=rng)
    if strategy == "teleported":
        res = csign_teleported_modes(state, mode_x, mode_y, n, rng=rng)
        if not res.succeeded:
            return res
        out = res.output_state
        tx, ty = res.details["target_x"], res.details["target_y"]
        leftovers = sorted(res.details["leftover_modes"])
        if leftovers:
            out = _detect(out, leftovers, lambda pattern, *_: {}, rng)[0]["state"]
            tx, ty = (_shift_index(m, leftovers) for m in (tx, ty))
        # relabel so the teleported modes sit where the inputs were
        rest = iter(m for m in range(out.modes) if m not in (tx, ty))
        perm = [tx if m == mode_x else ty if m == mode_y else next(rest) for m in range(out.modes)]
        res.output_state = fock.permute_modes(out, perm)
        return res
    raise ProtocolError(f"unknown csign strategy {strategy!r}")


def cnot_via_csign(state, control: BosonicQubit, target: BosonicQubit,
                   strategy="ideal", n=1, rng=None) -> ProtocolResult:
    """Controlled-not as H(target) - csign - H(target)."""
    work = hadamard(state, target)
    res = apply_csign_modes(work, control.a, target.a, strategy=strategy, n=n, rng=rng)
    if not res.succeeded:
        return res
    res.output_state = hadamard(res.output_state, target)
    return res


def prepare_b4_prime(rng=None) -> ProtocolResult:
    """Modified Bell resource from |01>|01> with two splitters and the NS gate pair.

    Success probability 1/16; the success branch equals the closed-form
    resource exactly.
    """
    state = number_state((0, 1, 0, 1))
    spread = element_matrix(BeamSplitter(0, 1, -BALANCED))
    state = apply_unitary(state, spread, [0, 1])
    state = apply_unitary(state, spread, [2, 3])
    res = csign_modes_ns(state, 1, 3, rng=rng)
    trace = [{"step": "spread", "kind": "element", "p": 1.0, "cum_p": 1.0}] + res.trace
    res.trace = trace
    res.details["target"] = make_resource("b4prime")
    return res


# ---------------------------------------------------------------------------
# partial Bell measurement and basic teleportation
# ---------------------------------------------------------------------------


def teleport_bm1(state: FockState, input_mode: int, rng=None) -> ProtocolResult:
    """Teleport one mode (photon count <= 1) using the two-term resource.

    A balanced splitter and two counters measure the input against the
    resource's first mode. An odd total (probability 1/2) succeeds and
    reveals the sign: pattern (0,1) is '+', (1,0) is '-', fixed with a pi
    phase shift. An even total projects the input onto a known number state.
    """
    if state.max_occupation(input_mode) > 1:
        raise UnsupportedInputError("input mode must carry at most one photon")
    m0 = state.modes
    resource = apply_unitary(number_state((1, 0)), element_matrix(BeamSplitter(0, 1, BALANCED)), [0, 1])
    trace = []
    _trace_step(trace, "adjoin-pair", "prep", modes=[m0, m0 + 1])
    work = apply_unitary(tensor(state, resource), element_matrix(BeamSplitter(0, 1, BALANCED)),
                         [input_mode, m0])
    target = _shift_index(m0 + 1, sorted([input_mode, m0]))

    def classify(pattern, total, _):
        if total != 1:
            return {"total": total, "ok": False, "projected": 0 if total == 0 else 1}
        corrections = [("phase", target, math.pi)] if pattern == (1, 0) else []
        return {"total": total, "ok": True, "corrections": corrections, "target_mode": target}

    branches = _detect(work, [input_mode, m0], classify, rng)
    chosen = _resolve(branches, rng)
    _trace_step(trace, "bm1", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    details = {"target_mode": target}
    if rng is None:
        details["branches"] = branches
    return _result(chosen, sum(b["p"] for b in branches if b["ok"]) if rng is None else None,
                   details, trace, _projected(input_mode))


# ---------------------------------------------------------------------------
# near-deterministic teleportation through the Fourier multiport
# ---------------------------------------------------------------------------


def _projected(mode):
    """failure_info of a teleportation that projected ``mode`` onto a number state."""
    return lambda b: {"projected_mode": mode, "value": b["projected"]}


def teleport_tn(state: FockState, input_mode: int, n: int, rng=None,
                resource: PreparedResource | None = None) -> ProtocolResult:
    """Teleport a {0,1}-photon mode through the 2n-mode resource.

    Detecting k photons (0 < k < n+1) lands the input on the k-th of the
    resource's last n modes, up to a pattern-dependent phase that the
    correction undoes. k = 0 or n+1 is the detected failure (input
    projected to |0> or |1>), total probability exactly 1/(n+1).
    """
    if state.max_occupation(input_mode) > 1:
        raise UnsupportedInputError("input mode must carry at most one photon")
    res = resource or make_resource("tn", n)
    if res.state.modes != 2 * n:
        raise ProtocolError("resource size does not match n")
    m0 = state.modes
    fourier_modes = [input_mode] + [m0 + i for i in range(n)]
    measured = sorted(fourier_modes)
    omega = 2 * math.pi / (n + 1)
    targets = [None] + [_shift_index(m0 + n + k - 1, measured) for k in range(1, n + 1)]
    fixes = {}  # one correction per (k, s), shared by its branches: a tuple is immutable

    def classify(pattern, k, s):
        if not 0 < k < n + 1:
            return {"k": k, "ok": False, "projected": 0 if k == 0 else 1}
        fix = fixes.setdefault((k, s), ("phase", targets[k], (omega * s) % (2 * math.pi)))
        return {"k": k, "ok": True, "target_mode": targets[k], "corrections": [fix]}

    branches = _detect(tensor(state, res.state), fourier_modes, classify, rng, fourier_matrix(n))
    trace = []
    _trace_step(trace, "fourier", "element", modes=fourier_modes)
    chosen = _resolve(branches, rng)
    _trace_step(trace, "bm-n", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    details = {"n": n}
    if chosen["ok"]:
        details["target_mode"] = chosen["target_mode"]
    p_success = None
    if rng is None:
        p_success = sum(b["p"] for b in branches if b["ok"])
        details.update(branches=branches,
                       failure_probability=sum(b["p"] for b in branches if not b["ok"]))
    return _result(chosen, p_success, details, trace, _projected(input_mode))


class _TeleportLayout:
    """Mode bookkeeping for the double-teleportation gadgets.

    The resource's four n-mode groups sit after the host's m0 modes. Step
    one measures the x input with the first group; step two measures the
    (shifted) y input with the third group. ``final(i)`` maps an original
    work index to its position after both measurements.
    """

    def __init__(self, m0, mode_x, mode_y, n):
        self.m0, self.n = m0, n
        self.fourier_x = [mode_x] + [m0 + i for i in range(n)]
        self.step1 = sorted(self.fourier_x)
        self.y1 = _shift_index(mode_y, self.step1)
        self.fourier_y = [self.y1] + [_shift_index(m0 + 2 * n + i, self.step1) for i in range(n)]
        self.step2 = sorted(self.fourier_y)

    def after_step1(self, index: int) -> int:
        return _shift_index(index, self.step1)

    def final(self, index: int) -> int:
        return _shift_index(_shift_index(index, self.step1), self.step2)

    def target_x(self, k1: int) -> int:
        return self.final(self.m0 + self.n + k1 - 1)

    def target_y(self, k2: int) -> int:
        return self.final(self.m0 + 3 * self.n + k2 - 1)

    def output_groups(self, k1: int, k2: int):
        tx, ty = self.target_x(k1), self.target_y(k2)
        last_x = [self.final(self.m0 + self.n + i) for i in range(self.n)]
        last_y = [self.final(self.m0 + 3 * self.n + i) for i in range(self.n)]
        return tx, ty, [m for m in last_x + last_y if m not in (tx, ty)]


def _teleported_gate_branches(state, mode_x, mode_y, n, resource, flip_x, flip_y, rng=None,
                              flavor=None):
    """Branch tree for gate teleportation through a 4n-mode resource.

    flip_x(k1, k2) / flip_y(k1, k2) give extra pi multiples applied to
    the target |1> components on top of the common pattern phases
    omega^(sum j r_j). Each branch keeps ``p1`` (and past stage 1 ``p2``),
    the probabilities of its two detections; with a ``flavor`` (the parity
    gadget's resource parity) a successful branch also carries its
    ``parity``. Without an rng, stage 1 is one ``_detect`` stage, and the
    y detection of every stage-1 success runs in one array pass
    (``measure._evolved_groups``): the same records, bit for bit, as one
    evolution and one ``measure_modes`` per success, each branch's state
    decoded from the pass's arrays when first read. With an ``rng`` each
    stage draws its one pattern, so the tree is the one branch drawn:
    stage 1, then stage 2 on the projected stage-1 state. Returns
    (branches, layout).
    """
    layout = _TeleportLayout(state.modes, mode_x, mode_y, n)
    omega = 2 * math.pi / (n + 1)
    u = fourier_matrix(n)
    branches = []
    ones = _detect(tensor(state, resource.state), layout.fourier_x,
                   lambda pattern, k, s: {"k": k, "s": s}, rng, u)
    if rng is None:
        # every stage-1 success's y detection, in one array pass
        passed = [one["state"] for one in ones if 0 < one["k"] < n + 1]
        seconds = measure._evolved_groups(passed, u, layout.fourier_y)

    @cache
    def output(k1, k2):
        # the targets, leftover modes and pi flips of every (k1, k2) success
        return (*layout.output_groups(k1, k2), math.pi * flip_x(k1, k2), math.pi * flip_y(k1, k2))

    for one in ones:
        pat1, p1, k1, s1 = one["pattern"], one["p"], one["k"], one["s"]
        if not 0 < k1 < n + 1:
            branches.append({"ok": False, "stage": 1, "pattern1": pat1, "k1": k1, "p": p1,
                             "p1": p1, "state": one["state"], "projected": 0 if k1 == 0 else 1})
            continue
        tx1, fixes_x = layout.target_x(k1), {}

        def second(pat2, k2, s2):
            if not 0 < k2 < n + 1:
                # y projected; undo the sign the collapsed resource imprinted on x
                ax = (omega * s1 + math.pi * (n if k2 == 0 else 0)) % (2 * math.pi)
                return {"pattern1": pat1, "k1": k1, "pattern2": pat2, "k2": k2, "p1": p1,
                        "ok": False, "stage": 2, "projected": 0 if k2 == 0 else 1,
                        "target_x": tx1, "corrections": [("phase", tx1, ax)]}
            tx, ty, leftovers, pi_x, pi_y = output(k1, k2)
            ax = (omega * s1 + pi_x) % (2 * math.pi)
            ay = (omega * s2 + pi_y) % (2 * math.pi)
            entry = {"pattern1": pat1, "k1": k1, "pattern2": pat2, "k2": k2, "p1": p1, "ok": True,
                     "target_x": tx, "target_y": ty, "leftover_modes": list(leftovers)}
            if flavor is not None:
                entry["parity"] = (k1 + k2 + flavor) % 2
            # one x correction per k2, shared by its branches: a tuple is immutable
            entry["corrections"] = [fixes_x.setdefault(k2, ("phase", tx, ax)), ("phase", ty, ay)]
            return entry

        twos = (_classified(next(seconds), second, rng) if rng is None
                else _detect(one["state"], layout.fourier_y, second, rng, u))
        for two in twos:
            del two["pattern"]
            two["p"], two["p2"] = p1 * two["p"], two["p"]
            branches.append(two)
    return branches, layout


def _teleported_gate_result(branches, layout, mode_x, mode_y, rng):
    chosen = _resolve(branches, rng)
    trace = []
    _trace_step(trace, "fourier-x", "element", modes=layout.fourier_x)
    _trace_step(trace, "bm-x", "measure", p=chosen["p1"], outcome=list(chosen["pattern1"]))
    if "pattern2" in chosen:
        _trace_step(trace, "fourier-y", "element", modes=layout.fourier_y)
        _trace_step(trace, "bm-y", "measure", p=chosen["p2"], outcome=list(chosen["pattern2"]))
    details = {"n": layout.n, "layout": layout}
    p_success = None
    if rng is None:
        p_success = sum(b["p"] for b in branches if b["ok"])
        details.update(branches=branches, success_probability=p_success)
    if chosen["ok"]:
        details.update(target_x=chosen["target_x"], target_y=chosen["target_y"],
                       leftover_modes=chosen["leftover_modes"],
                       k1=chosen["k1"], k2=chosen["k2"])
        if "parity" in chosen:
            details["parity"] = chosen["parity"]
    else:
        details["branch"] = chosen
    return _result(chosen, p_success, details, trace, lambda b: {
        "projected_mode": mode_x if b["stage"] == 1 else mode_y,
        "value": b["projected"], "stage": b["stage"]})


def csign_teleported_modes(state: FockState, mode_x: int, mode_y: int, n: int,
                           rng=None, resource: PreparedResource | None = None) -> ProtocolResult:
    """Mode-level conditional sign by double teleportation, p = (n/(n+1))^2.

    The resource carries the gate pre-applied; on top of the pattern
    phases, each target needs a pi flip keyed to the *other* side's
    detected total. A first-step failure (probability 1/(n+1)) aborts
    before touching mode_y; a second-step failure leaves the teleported
    x restorable by a phase shift.
    """
    if state.max_occupation(mode_x) > 1 or state.max_occupation(mode_y) > 1:
        raise UnsupportedInputError("gate modes must carry at most one photon")
    res = resource or make_resource("tnprime", n)
    if res.state.modes != 4 * n:
        raise ProtocolError("resource size does not match n")
    flip_x = lambda k1, k2: (n - k2) % 2
    flip_y = lambda k1, k2: (n - k1) % 2
    branches, layout = _teleported_gate_branches(state, mode_x, mode_y, n, res, flip_x, flip_y, rng)
    return _teleported_gate_result(branches, layout, mode_x, mode_y, rng)


def csign_teleported(state: FockState, q1: BosonicQubit, q2: BosonicQubit, n: int,
                     rng=None, resource: PreparedResource | None = None) -> ProtocolResult:
    """Two-qubit conditional sign via gate teleportation of the a-modes."""
    require_coherent(state, q1)
    require_coherent(state, q2)
    res = csign_teleported_modes(state, q1.a, q2.a, n, rng=rng, resource=resource)
    if res.succeeded:
        layout = res.details["layout"]
        res.details["q1"] = (res.details["target_x"], layout.final(q1.b))
        res.details["q2"] = (res.details["target_y"], layout.final(q2.b))
    return res


# ---------------------------------------------------------------------------
# parity-tagged state preparation
# ---------------------------------------------------------------------------


class _GateLedger:
    """Tracks nondeterministic gate usage inside a preparation circuit."""

    def __init__(self, strategy, n, rng):
        self.strategy, self.n, self.rng = strategy, n, rng
        self.count = 0
        self.probability = 1.0
        self.failure = None
        self.trace = []

    def csign(self, state, mode_x, mode_y):
        self.count += 1
        res = apply_csign_modes(state, mode_x, mode_y, strategy=self.strategy,
                                n=self.n, rng=self.rng)
        if not res.succeeded:
            self.failure = res
            _trace_step(self.trace, f"csign-{self.count}", "gate", p=0.0,
                        modes=[mode_x, mode_y], outcome="failed")
            return None
        p = res.success_probability if res.success_probability is not None else 1.0
        _trace_step(self.trace, f"csign-{self.count}", "gate", p=p, modes=[mode_x, mode_y])
        if res.success_probability is not None:
            self.probability *= res.success_probability
        return res.output_state

    def failed(self) -> ProtocolResult:
        """The result of a preparation stopped by its failed gate."""
        fail = self.failure
        return ProtocolResult(False, None, fail.output_state, failure_info=fail.failure_info,
                              trace=self.trace, details={"csign_count": self.count})


def _conditional_rotation(state, control_b, target_a, target_b, theta, ledger):
    """Rotation of the target qubit conditioned on the control being |0>_q.

    Built by conjugating the half-angle splitter with two conditional
    signs (control's b-mode against the target's a-mode).
    """
    half = element_matrix(BeamSplitter(0, 1, theta / 2))
    half_inv = element_matrix(BeamSplitter(0, 1, -theta / 2))
    state = apply_unitary(state, half, [target_a, target_b])
    state = ledger.csign(state, control_b, target_a)
    if state is None:
        return None
    state = apply_unitary(state, half_inv, [target_a, target_b])
    state = ledger.csign(state, control_b, target_a)
    return state


def _tp_gate_sequence(state, a_modes, b_modes, anc1, ledger):
    """The parity-imprinting gate walk shared by tp_n and p'_n preparation.

    a_modes/b_modes list the block's qubit modes (qubit i on
    (a_modes[i], b_modes[i])); anc1 is the ancilla mode the conditional
    signs couple to. Assumes the block was initialized with its two-term
    seed superposition.
    """
    n = len(a_modes)
    state = ledger.csign(state, b_modes[n - 1], anc1)
    if state is None:
        return None
    for l in range(n - 1):
        theta = math.atan(math.sqrt(n - l - 1))
        control_b = b_modes[n - l - 1]
        target_a, target_b = a_modes[n - l - 2], b_modes[n - l - 2]
        state = _conditional_rotation(state, control_b, target_a, target_b, theta, ledger)
        if state is None:
            return None
        state = ledger.csign(state, b_modes[n - l - 2], anc1)
        if state is None:
            return None
    return state


def _seed_block(n):
    """Single-boson product seed |1>^n |0>^n and its spreading splitter."""
    counts = (1,) * n + (0,) * n
    return number_state(counts), math.atan(math.sqrt(n))


def prepare_tp_n(n: int, strategy: str = "ideal", rng=None, teleport_n: int = 1) -> ProtocolResult:
    """Prepare the parity-tagged resource on 2n qubit modes plus an ancilla pair.

    Single-boson inputs, two seed splitters, then a walk of conditional
    rotations and conditional signs that couples every b-mode to the
    first ancilla mode exactly once. With ideal internal gates the output
    matches the closed form; with strategy 'ns' each conditional sign
    succeeds with probability 1/16 (3n-2 of them in total).
    """
    if n < 1:
        raise ProtocolError("n >= 1 required")
    a_modes = list(range(n))
    b_modes = list(range(n, 2 * n))
    anc1, anc2 = 2 * n, 2 * n + 1
    seed, theta_seed = _seed_block(n)
    state = tensor(seed, number_state((0, 1)))
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, theta_seed)),
                          [a_modes[n - 1], b_modes[n - 1]])
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, -BALANCED)), [anc1, anc2])
    ledger = _GateLedger(strategy, teleport_n, rng)
    state = _tp_gate_sequence(state, a_modes, b_modes, anc1, ledger)
    if state is None:
        return ledger.failed()
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, BALANCED)), [anc1, anc2])
    state = fock.phase_on_mode(state, anc1, math.pi)
    _trace_step(ledger.trace, "unspread-ancilla", "element", modes=[anc1, anc2])
    return ProtocolResult(True, ledger.probability if rng is None else None, state,
                          trace=ledger.trace,
                          details={"csign_count": ledger.count,
                                   "qubit_modes": list(zip(a_modes, b_modes)),
                                   "ancilla": (anc1, anc2)})


def combine_tp_to_tprime(n: int, strategy: str = "ideal", rng=None,
                         copies: tuple | None = None) -> ProtocolResult:
    """Assemble the gate-modified resource from two parity-tagged copies.

    One conditional sign couples the two ancilla qubits, balanced
    splitters rotate them, and counting the four ancilla modes gives four
    equiprobable outcomes; pi shifts on the b-modes of the flagged halves
    turn every outcome into the target resource.
    """
    if copies is None:
        tp = make_resource("tpn", n).state
        copies = (tp, tp)
    width = 2 * n + 2
    state = tensor(copies[0], copies[1])
    anc_a = (2 * n, 2 * n + 1)
    anc_b = (width + 2 * n, width + 2 * n + 1)
    ledger = _GateLedger(strategy, 1, rng)
    state = ledger.csign(state, anc_a[0], anc_b[0])
    if state is None:
        return ledger.failed()
    bal = element_matrix(BeamSplitter(0, 1, BALANCED))
    state = apply_unitary(state, bal, list(anc_a))
    state = apply_unitary(state, bal, list(anc_b))
    measured = sorted(anc_a + anc_b)
    b_modes_a = [_shift_index(n + i, measured) for i in range(n)]
    b_modes_b = [_shift_index(width + n + i, measured) for i in range(n)]

    def classify(pattern, *_):
        # a half whose ancilla pair reads (1, 0) is flagged: pi on its b-modes
        corrections = [("phase", m, math.pi) for half, b_modes in ((pattern[:2], b_modes_a),
                                                                   (pattern[2:], b_modes_b))
                       if half == (1, 0) for m in b_modes]
        return {"ok": True, "corrections": corrections}

    branches = _detect(state, measured, classify, rng)
    chosen = _resolve(branches, rng)
    _trace_step(ledger.trace, "bm-ancilla", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    details = {"csign_count": ledger.count}
    if rng is None:
        details["branches"] = branches
    else:
        details["pattern"] = chosen["pattern"]
    return _result(chosen, ledger.probability if rng is None else None, details, ledger.trace)


def prepare_p_prime(n: int, strategy: str = "ideal", rng=None) -> ProtocolResult:
    """Prepare the parity-projecting resource with a single shared ancilla.

    Two parity-tagged blocks are walked against one ancilla qubit, which
    then carries the total parity; measuring it collapses the 4n modes to
    the even resource or the equally useful odd variant (details report
    which).
    """
    if n < 1:
        raise ProtocolError("n >= 1 required")
    a_x, b_x = list(range(n)), list(range(n, 2 * n))
    a_y = list(range(2 * n, 3 * n))
    b_y = list(range(3 * n, 4 * n))
    anc1, anc2 = 4 * n, 4 * n + 1
    seed, theta_seed = _seed_block(n)
    state = tensor(tensor(seed, seed), number_state((0, 1)))
    bs_seed = element_matrix(BeamSplitter(0, 1, theta_seed))
    state = apply_unitary(state, bs_seed, [a_x[n - 1], b_x[n - 1]])
    state = apply_unitary(state, bs_seed, [a_y[n - 1], b_y[n - 1]])
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, -BALANCED)), [anc1, anc2])
    ledger = _GateLedger(strategy, 1, rng)
    state = _tp_gate_sequence(state, a_x, b_x, anc1, ledger)
    if state is not None:
        state = _tp_gate_sequence(state, a_y, b_y, anc1, ledger)
    if state is None:
        return ledger.failed()
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, BALANCED)), [anc1, anc2])
    state = fock.phase_on_mode(state, anc1, math.pi)
    _trace_step(ledger.trace, "unspread-ancilla", "element", modes=[anc1, anc2])
    # both parities are usable; the even one is the post-selected view
    branches = _detect(state, [anc1, anc2], lambda pattern, *_: {
        "parity": 0 if pattern == (0, 1) else 1, "ok": True}, rng)
    chosen = _resolve(branches, rng)
    _trace_step(ledger.trace, "bm-ancilla", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    details = {"csign_count": ledger.count, "parity": chosen["parity"]}
    if rng is None:
        details["branches"] = branches
    return _result(chosen, ledger.probability if rng is None else None, details, ledger.trace)


# ---------------------------------------------------------------------------
# nondestructive parity measurement and its applications
# ---------------------------------------------------------------------------


def parity_measure(state: FockState, mode_x: int, mode_y: int, n: int, rng=None,
                   resource: PreparedResource | None = None) -> ProtocolResult:
    """Parity of two ({0,1}-photon) modes without destroying their state.

    Gate teleportation against the parity-projecting resource: the summed
    detector totals reveal the parity, and the teleported modes keep the
    in-sector superposition after the pattern-phase corrections. Needs
    n >= 2 for odd sectors to pass (the even-only resource at n = 1 has
    no odd detection channel). Details report parity and target modes.
    """
    return _teleported_gate_result(*_parity_gadget(state, mode_x, mode_y, n, rng, resource),
                                   mode_x, mode_y, rng)


def _parity_gadget(state, mode_x, mode_y, n, rng, resource=None):
    """The parity gadget's branch tree and layout; a successful branch carries
    its ``parity``, the detected totals plus the resource's parity flavour."""
    res = resource or make_resource("pnprime", n)
    if res.state.modes != 4 * n:
        raise ProtocolError("resource size does not match n")
    flip = lambda k1, k2: 0
    return _teleported_gate_branches(state, mode_x, mode_y, n, res, flip, flip, rng,
                                     res.roles.get("parity", 0))


def parity_project_ideal(state: FockState, mode_x: int, mode_y: int, rng=None):
    """Oracle parity projection (non-destructive, modes kept in place).

    Returns the possible parity sectors, each with its probability and
    projected state; with an ``rng``, only the one sector drawn by weight,
    the only one projected.
    """
    fock._check_modes(state.modes, [mode_x])
    fock._check_modes(state.modes, [mode_y])
    total = _weight(state)
    sectors = {0: {}, 1: {}}
    for occ, amp in state.terms():
        sectors[(occ[mode_x] + occ[mode_y]) % 2][occ] = amp
    possible = []
    for parity in (0, 1):
        amps = sectors[parity]
        weight = fock._squared_norm(amps.values())
        if weight / total >= IMPOSSIBLE:
            possible.append((parity, amps, weight))
    if rng is not None:
        possible = [possible[_drawer([w / total for _, _, w in possible])(rng.random())]]
    return [{"parity": parity, "p": weight / total,
             "state": _projection(state.modes, amps, weight)}
            for parity, amps, weight in possible]


def _parity_check(state, mode_x, mode_y, n, ideal, rng):
    """The parity check that teleport_with_e and distribute_entanglement build on.

    Returns (branches, final, p_gadget): the oracle projection when
    ``ideal``, else the teleported gadget's branches in its order, failures
    included; with an rng, the one branch drawn. A branch with ``ok``
    carries ``parity``, ``target_x``/``target_y`` (where mode_x and mode_y
    now sit) and ``leftover_modes``; ``final`` maps any other input mode to
    where it now sits.
    """
    if ideal:
        checked = parity_project_ideal(state, mode_x, mode_y, rng)
        return [dict(b, ok=True, target_x=mode_x, target_y=mode_y, leftover_modes=[])
                for b in checked], lambda m: m, 1.0
    branches, layout = _parity_gadget(state, mode_x, mode_y, n, rng)
    return branches, layout.final, sum(b["p"] for b in branches if b["ok"])


def teleport_with_e(alpha0: complex, alpha1: complex, n: int = 2, rng=None,
                    ideal_parity: bool = False) -> ProtocolResult:
    """Full teleportation with the traditional entangled resource.

    The Bell measurement is decomposed into the nondestructive parity
    measurement on the two inner modes followed by balanced splitters and
    four counters that fix the sign. Pauli-style corrections (a pi phase
    and/or a mode swap on the output pair) restore the input, and the
    whole thing succeeds exactly when the parity gadget does. The branch
    list holds the gadget's failures first, then the sign-decode branches,
    which keep their two stages' probabilities as ``p_parity`` and
    ``p_sign``. The trace has a ``parity`` step (outcome None when the
    gadget fails) and, past it, a ``sign`` step with the four-counter
    pattern as its ``outcome`` and the decoded ``sign``.
    """
    state = tensor(encode_qubit(alpha0, alpha1), make_resource("e").state)
    trace = []
    _trace_step(trace, "adjoin-e", "prep")
    checked, final, p_gadget = _parity_check(state, 1, 2, n, ideal_parity, rng)
    bal = element_matrix(BeamSplitter(0, 1, BALANCED))
    # end to end, the parity gadget can fail before the sign decode
    branches = [b for b in checked if not b["ok"]]
    for pb in filter(lambda b: b["ok"], checked):
        inner1, inner2 = pb["target_x"], pb["target_y"]
        outer2 = final(3)
        work = apply_unitary(pb["state"], bal, [0, inner1])
        work = apply_unitary(work, bal, [inner2, outer2])
        four = sorted([0, inner1, inner2, outer2])
        oa, ob = (_shift_index(final(m), four) for m in (4, 5))
        swap = [("swap", oa, ob)] if pb["parity"] % 2 == 1 else []

        def classify(pattern, *_):
            sign = "+" if (pattern[four.index(0)] == 1) == (pattern[four.index(inner2)] == 1) else "-"
            corrections = swap + ([("phase", oa, math.pi)] if sign == "+" else [])
            return {"parity": pb["parity"], "sign": sign, "ok": True, "out_pair": (oa, ob),
                    "corrections": corrections}

        for b in _detect(work, four, classify, rng):
            b.update(p=pb["p"] * b["p"], p_parity=pb["p"], p_sign=b["p"])
            branches.append(b)
    chosen = _resolve(branches, rng)
    if chosen["ok"]:
        _trace_step(trace, "parity", "measure", p=chosen["p_parity"], outcome=chosen["parity"])
        _trace_step(trace, "sign", "measure", p=chosen["p_sign"], outcome=list(chosen["pattern"]),
                    sign=chosen["sign"])
    else:
        _trace_step(trace, "parity", "measure", p=chosen["p"], outcome=None)
    details = {"branches": branches} if rng is None else {"branch": chosen}
    return _result(chosen, p_gadget if rng is None else None, details, trace,
                   lambda b: {"stage": b["stage"], "projected": b["projected"]})


def distribute_entanglement(n: int = 2, rng=None, method: str = "gadget") -> ProtocolResult:
    """Share a Bell pair using two independent photons and a parity check.

    Each photon is split between a local and a remote mode; accepting odd
    local parity leaves the remote pair maximally entangled with the
    (teleported) local pair. On even parity the local modes are measured
    out, collapsing the remote side to a product state. The branch list
    follows the parity gadget's order, its failures (parity None) included;
    the acceptance probability, reported by an exact run, is taken over
    the branches past the gadget.
    """
    if method not in ("ideal", "gadget"):
        raise ProtocolError(f"unknown method {method!r}")
    half_a = FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): -1 / math.sqrt(2)})
    half_b = FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): 1 / math.sqrt(2)})
    # photon A across (local 0, remote 2); photon B across (local 1, remote 3)
    state = tensor(half_a, half_b)
    state = fock.permute_modes(state, [0, 2, 1, 3])
    trace = []
    _trace_step(trace, "split-photons", "prep")
    branches = []
    checked, final, _ = _parity_check(state, 0, 1, n, method == "ideal", rng)
    for b in checked:
        if not b["ok"]:
            branches.append({"parity": None, "p": b["p"], "ok": False, "state": b["state"],
                             "accepted": False, "remote": None,
                             "gadget_failure": {"stage": b["stage"], "projected": b["projected"]}})
            continue
        remote = (final(2), final(3))
        local = (b["target_x"], b["target_y"])
        if b["parity"] == 1:
            branches.append({"parity": 1, "p": b["p"], "ok": True, "state": b["state"],
                             "accepted": True, "remote": remote, "local": local,
                             "leftovers": b["leftover_modes"]})
            continue
        meas = sorted(local)
        rest = tuple(_shift_index(m, meas) for m in remote)
        for sub in _detect(b["state"], meas, lambda pattern, *_: {
                "parity": 0, "ok": False, "accepted": False, "remote": rest}, rng):
            sub["p"] = b["p"] * sub["p"]
            branches.append(sub)
    chosen = _resolve(branches, rng)
    _trace_step(trace, "parity", "measure", p=chosen["p"], outcome=chosen["parity"])
    details = {"branch": chosen}
    p_accept = None
    if rng is None:
        reported = [b for b in branches if b["parity"] is not None]
        p_accept = sum(b["p"] for b in reported if b["accepted"]) / sum(b["p"] for b in reported)
        details = {"acceptance_probability": p_accept, "branches": branches}
    return _result(chosen, p_accept, details, trace,
                   lambda b: b.get("gadget_failure") or {"parity": 0})
