"""Post-selected and teleported gate protocols on dual-rail bosonic qubits.

Qubit convention: logical |0> is one photon in the *second* mode of the
pair (occupation 01), logical |1> is one photon in the first (10).

Every gadget returns a ProtocolResult. With ``rng=None`` the gadget is
evaluated analytically: the returned output is the post-selected success
branch and ``details["branches"]`` enumerates every measurement outcome
with its exact probability. With an ``rng`` the measurement outcomes are
sampled instead, one trajectory end to end. Either way one resolver picks
the branch (``_resolve``) and one builder turns it into the result
(``_result``), and every protocol writes trace steps. A sampled Fourier
detection (``teleport_tn`` and each stage of the teleported gates) draws
its pattern through ``measure._sample_detection``, so the trajectory
neither evolves nor groups the whole state; its branch equals the exact
branch of the same pattern to 1e-10, not bit for bit.

A branch is a plain dict. Every branch carries ``p`` (its exact
probability), ``ok`` (whether the gadget succeeded on it) and ``state``
(the post-measurement state, corrections applied), plus ``corrections``
(the ``("phase", mode, angle)`` / ``("swap", a, b)`` feed-forward applied)
when a correction was applied. Gadgets add their own keys: the detected
``pattern`` (``pattern1``/``pattern2`` per teleportation stage), ``k1``/
``k2``, ``parity``, ``sign``, ``accepted``, ``stage`` and ``projected``.

Phase corrections after Fourier-multiport measurements follow the
detected pattern {r_j}: the |1> component of the target mode is rotated
by prod_j w^{j r_j} (w the primitive (n+1)-th root of unity), plus pi
flips keyed to the detected totals for the gate-teleportation variants.
These formulas are exercised against brute-force branch projection in the
test suite before anything composes on top of them.
"""

import math
from dataclasses import dataclass, field

from . import fock
from .fock import FockError, FockState, number_state, tensor
from .measure import (
    IMPOSSIBLE,
    _drawer,
    _projection,
    _sample_detection,
    _weight,
    measure_modes,
    sample_from_branches,
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


def _resolve(branches, rng):
    """The branch a run lands on.

    With an rng: one draw over the branches' ``p``. Without one: the
    post-selected view, the first branch with ``ok`` set, or the likeliest
    branch when none succeeds (an input with no success channel).
    """
    if rng is not None:
        return branches[_drawer([b["p"] for b in branches])(rng.random())]
    return next((b for b in branches if b["ok"]), None) or max(branches, key=lambda b: b["p"])


def _result(chosen, p, details, trace, failure=None) -> ProtocolResult:
    """The ProtocolResult of the resolved branch; ``failure(chosen)`` builds
    the failure_info, for the chosen branch only."""
    ok = chosen["ok"]
    return ProtocolResult(ok, p, chosen["state"], corrections=chosen.get("corrections", []),
                          failure_info=None if ok else failure(chosen), trace=trace,
                          details=details)


def _trace_step(trace, label, kind, p=1.0, **extra):
    cum = trace[-1]["cum_p"] * p if trace else p
    entry = {"step": label, "kind": kind, "p": p, "cum_p": cum}
    entry.update(extra)
    trace.append(entry)


def _extend_trace(trace, sub):
    """Append a sub-protocol's trace, rebasing its cumulative probabilities."""
    base = trace[-1]["cum_p"] if trace else 1.0
    for entry in sub:
        rebased = dict(entry)
        rebased["cum_p"] = base * entry["cum_p"]
        trace.append(rebased)


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


def qubit_amplitudes(state: FockState, q: BosonicQubit) -> tuple:
    """(amplitude of |0>_q, amplitude of |1>_q); requires a factored qubit."""
    pair = factor_out(state, [q.a, q.b])
    require_coherent(pair, BosonicQubit(0, 1))
    return pair.amplitude((0, 1)), pair.amplitude((1, 0))


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


_NS1_CACHE: dict = {}


def ns1_network() -> Ns1Network:
    if "network" not in _NS1_CACHE:
        _NS1_CACHE["network"] = Ns1Network(sequence=decompose_reck(ns1_unitary()))
    return _NS1_CACHE["network"]


def _ns1_effective() -> ModeUnitary:
    # gadgets run the recomposed element network, not the target matrix
    if "effective" not in _NS1_CACHE:
        _NS1_CACHE["effective"] = compose(ns1_network().sequence)
    return _NS1_CACHE["effective"]


def apply_ns1(state: FockState, mode: int, rng=None) -> ProtocolResult:
    """Nonlinear sign flip on one mode, heralded by the ancilla detectors.

    On success the mode's |2> amplitude changes sign; the success
    probability is exactly 1/4 for any admissible (<= 2 photon) input.
    """
    if state.max_occupation(mode) > 2:
        raise UnsupportedInputError(f"mode {mode} holds more than 2 photons")
    m = state.modes
    network = ns1_network()
    work = tensor(state, number_state(network.ancilla_counts))
    work = apply_unitary(work, _ns1_effective(), [mode, m, m + 1])
    trace = []
    _trace_step(trace, "ns1-network", "element", modes=[mode, m, m + 1])
    branches = []
    for br in measure_modes(work, [m, m + 1]):
        pattern = tuple(c for _, c in br.outcome)
        branches.append({"pattern": pattern, "p": br.probability,
                         "ok": pattern == network.accept, "state": br.post_state})
    chosen = _resolve(branches, rng)
    _trace_step(trace, "ns1-herald", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    details = {"accept": network.accept}
    if rng is None:
        details["branches"] = branches
    return _result(chosen, sum(b["p"] for b in branches if b["ok"]) if rng is None else None,
                   details, trace, lambda b: {"detector": "ns1-ancilla", "outcome": b["pattern"]})


# ---------------------------------------------------------------------------
# conditional sign gates
# ---------------------------------------------------------------------------


def csign_modes_ns(state: FockState, mode_x: int, mode_y: int, rng=None) -> ProtocolResult:
    """Mode-level conditional sign via two heralded sign flips (p = 1/16).

    Success branch: amplitude sign flips exactly when both modes hold a
    photon. Works on the dual-rail a-modes to give the two-qubit gate.
    """
    bal = element_matrix(BeamSplitter(0, 1, BALANCED))
    work = apply_unitary(state, bal, [mode_x, mode_y])
    trace = []
    _trace_step(trace, "mix", "element", modes=[mode_x, mode_y])
    prob = 1.0
    for step, m in (("ns-x", mode_x), ("ns-y", mode_y)):
        res = apply_ns1(work, m, rng=rng)
        _extend_trace(trace, res.trace)
        if not res.succeeded:
            return ProtocolResult(
                succeeded=False,
                success_probability=None,
                output_state=res.output_state,
                failure_info={"stage": step, **res.failure_info},
                trace=trace,
            )
        if res.success_probability is not None:
            prob *= res.success_probability
        work = res.output_state
    bal_inv = element_matrix(BeamSplitter(0, 1, -BALANCED))
    work = apply_unitary(work, bal_inv, [mode_x, mode_y])
    _trace_step(trace, "unmix", "element", modes=[mode_x, mode_y])
    return ProtocolResult(
        succeeded=True,
        success_probability=prob if rng is None else None,
        output_state=work,
        trace=trace,
    )


def csign_via_ns(state: FockState, q1: BosonicQubit, q2: BosonicQubit, rng=None) -> ProtocolResult:
    """Two-qubit conditional sign on dual-rail qubits, success 1/16."""
    require_coherent(state, q1)
    require_coherent(state, q2)
    return csign_modes_ns(state, q1.a, q2.a, rng=rng)


def csign_ideal_modes(state: FockState, mode_x: int, mode_y: int) -> FockState:
    """Oracle conditional sign: phase (-1)^(n_x n_y)."""
    fock._check_mode(state.modes, mode_x)
    fock._check_mode(state.modes, mode_y)
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
            branches = measure_modes(out, leftovers)
            out = (branches[0] if rng is None else sample_from_branches(branches, rng)).post_state
            tx = _shift_index(tx, leftovers)
            ty = _shift_index(ty, leftovers)
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


@dataclass(frozen=True)
class Bm1Outcome:
    pattern: tuple
    total: int
    parity: str
    sign: str | None
    probability: float
    post_state: FockState


def bm1_measure(state: FockState, m1: int, m2: int, rng=None):
    """Balanced splitter on (m1, m2) then two counters.

    Odd totals reveal the superposition sign: pattern (0,1) is '+',
    (1,0) is '-'. Returns the full outcome list, or one sampled outcome
    when rng is given.
    """
    work = apply_unitary(state, element_matrix(BeamSplitter(0, 1, BALANCED)), [m1, m2])
    branches = measure_modes(work, [m1, m2])
    outcomes = []
    for br in branches:
        pattern = tuple(c for _, c in br.outcome)
        total = sum(pattern)
        parity = "odd" if total % 2 else "even"
        sign = None
        if total == 1:
            sign = "+" if pattern == (0, 1) else "-"
        outcomes.append(Bm1Outcome(pattern, total, parity, sign, br.probability, br.post_state))
    return outcomes if rng is None else sample_from_branches(outcomes, rng)


def teleport_bm1(state: FockState, input_mode: int, rng=None) -> ProtocolResult:
    """Teleport one mode (photon count <= 1) using the two-term resource.

    Success probability 1/2; failures project the input onto a known
    number state. The '-' outcome is fixed with a pi phase shift.
    """
    if state.max_occupation(input_mode) > 1:
        raise UnsupportedInputError("input mode must carry at most one photon")
    m0 = state.modes
    resource = apply_unitary(number_state((1, 0)), element_matrix(BeamSplitter(0, 1, BALANCED)), [0, 1])
    work = tensor(state, resource)
    trace = []
    _trace_step(trace, "adjoin-pair", "prep", modes=[m0, m0 + 1])
    outcomes = bm1_measure(work, input_mode, m0, rng=None)
    measured = sorted([input_mode, m0])
    target = _shift_index(m0 + 1, measured)
    branches = []
    for o in outcomes:
        entry = {"pattern": o.pattern, "p": o.probability, "total": o.total}
        if o.total == 1:
            corrections = [("phase", target, math.pi)] if o.sign == "-" else []
            out = o.post_state
            for _, mode, angle in corrections:
                out = fock.phase_on_mode(out, mode, angle)
            entry.update(ok=True, state=out, corrections=corrections, target_mode=target)
        else:
            entry.update(ok=False, projected=0 if o.total == 0 else 1, state=o.post_state)
        branches.append(entry)
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


def _fourier_branches(work: FockState, fourier_modes, n: int, rng=None):
    """Apply the (n+1)-point transform to fourier_modes and detect them all.

    Returns (pattern, k, S, probability, project) records with S = sum_j j*r_j:
    every count pattern, or with an ``rng`` the one pattern drawn by
    ``measure._sample_detection``, which does not evolve ``work``.
    ``project()`` gives the branch's outcome, so callers project only what they keep.
    """
    if rng is None:
        evolved = apply_unitary(work, fourier_matrix(n), fourier_modes)
        records = measure_modes(evolved, fourier_modes, lazy=True)
    else:
        records = [_sample_detection(work, fourier_matrix(n), fourier_modes, rng)]
    return [(pattern, sum(pattern), sum(j * r for j, r in enumerate(pattern)), p, project)
            for pattern, p, project in records]


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
    records = _fourier_branches(tensor(state, res.state), fourier_modes, n, rng)
    branches = []
    for pattern, k, s, p, _ in records:
        entry = {"pattern": pattern, "k": k, "p": p}
        if 0 < k < n + 1:
            target = _shift_index(m0 + n + k - 1, measured)
            angle = (omega * s) % (2 * math.pi)
            entry.update(ok=True, target_mode=target, corrections=[("phase", target, angle)])
        else:
            entry.update(ok=False, projected=0 if k == 0 else 1)
        branches.append(entry)
    trace = []
    _trace_step(trace, "fourier", "element", modes=fourier_modes)
    chosen = branches[0] if rng is not None else _resolve(branches, None)
    for b, (*_, project) in zip(branches, records):
        post = project().post_state
        b["state"] = fock.phase_on_mode(post, *b["corrections"][0][1:]) if b["ok"] else post
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
        self._final = {}

    def after_step1(self, index: int) -> int:
        return _shift_index(index, self.step1)

    def final(self, index: int) -> int:
        out = self._final.get(index)
        if out is None:
            out = self._final[index] = _shift_index(_shift_index(index, self.step1), self.step2)
        return out

    def target_x(self, k1: int) -> int:
        return self.final(self.m0 + self.n + k1 - 1)

    def target_y(self, k2: int) -> int:
        return self.final(self.m0 + 3 * self.n + k2 - 1)

    def output_groups(self, k1: int, k2: int):
        tx, ty = self.target_x(k1), self.target_y(k2)
        last_x = [self.final(self.m0 + self.n + i) for i in range(self.n)]
        last_y = [self.final(self.m0 + 3 * self.n + i) for i in range(self.n)]
        leftovers = [m for m in last_x + last_y if m not in (tx, ty)]
        return tx, ty, leftovers


def _teleported_gate_branches(state, mode_x, mode_y, n, resource, flip_x, flip_y, rng=None):
    """Branch tree for gate teleportation through a 4n-mode resource.

    flip_x(k1, k2) / flip_y(k1, k2) give extra pi multiples applied to
    the target |1> components on top of the common pattern phases
    omega^(sum j r_j). Each branch keeps ``p1`` (and past stage 1 ``p2``),
    the probabilities of its two detections. With an ``rng`` each stage
    draws its one pattern, so the tree is the one branch drawn: stage 1,
    then stage 2 on the projected stage-1 state. Returns (branches, layout).
    """
    m0 = state.modes
    layout = _TeleportLayout(m0, mode_x, mode_y, n)
    work = tensor(state, resource.state)
    omega = 2 * math.pi / (n + 1)
    branches = []
    for pat1, k1, s1, p1, project1 in _fourier_branches(work, layout.fourier_x, n, rng):
        post1 = project1().post_state
        if not 0 < k1 < n + 1:
            branches.append({"ok": False, "stage": 1, "pattern1": pat1, "k1": k1, "p": p1,
                             "p1": p1, "state": post1, "projected": 0 if k1 == 0 else 1})
            continue
        for pat2, k2, s2, p2, project2 in _fourier_branches(post1, layout.fourier_y, n, rng):
            post2 = project2().post_state
            entry = {"pattern1": pat1, "k1": k1, "pattern2": pat2, "k2": k2, "p": p1 * p2,
                     "p1": p1, "p2": p2}
            tx = layout.target_x(k1)
            if not 0 < k2 < n + 1:
                # y projected; undo the sign the collapsed resource imprinted on x
                w = n if k2 == 0 else 0
                angle = (omega * s1 + math.pi * w) % (2 * math.pi)
                entry.update(ok=False, stage=2, projected=0 if k2 == 0 else 1,
                             state=fock.phase_on_mode(post2, tx, angle),
                             target_x=tx, corrections=[("phase", tx, angle)])
                branches.append(entry)
                continue
            tx2, ty, leftovers = layout.output_groups(k1, k2)
            ax = (omega * s1 + math.pi * flip_x(k1, k2)) % (2 * math.pi)
            ay = (omega * s2 + math.pi * flip_y(k1, k2)) % (2 * math.pi)
            out = fock.phase_on_mode(post2, tx2, ax)
            out = fock.phase_on_mode(out, ty, ay)
            entry.update(ok=True, state=out, target_x=tx2, target_y=ty,
                         leftover_modes=leftovers,
                         corrections=[("phase", tx2, ax), ("phase", ty, ay)])
            branches.append(entry)
    return branches, layout


def _teleported_gate_result(state, mode_x, mode_y, n, resource, flip_x, flip_y, rng):
    branches, layout = _teleported_gate_branches(state, mode_x, mode_y, n, resource,
                                                 flip_x, flip_y, rng)
    chosen = branches[0] if rng is not None else _resolve(branches, None)
    trace = []
    _trace_step(trace, "fourier-x", "element", modes=layout.fourier_x)
    _trace_step(trace, "bm-x", "measure", p=chosen["p1"], outcome=list(chosen["pattern1"]))
    if "pattern2" in chosen:
        _trace_step(trace, "fourier-y", "element", modes=layout.fourier_y)
        _trace_step(trace, "bm-y", "measure", p=chosen["p2"], outcome=list(chosen["pattern2"]))
    details = {"n": n, "layout": layout}
    p_success = None
    if rng is None:
        p_success = sum(b["p"] for b in branches if b["ok"])
        details.update(branches=branches, success_probability=p_success)
    if chosen["ok"]:
        details.update(target_x=chosen["target_x"], target_y=chosen["target_y"],
                       leftover_modes=chosen["leftover_modes"],
                       k1=chosen["k1"], k2=chosen["k2"])
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
    return _teleported_gate_result(state, mode_x, mode_y, n, res, flip_x, flip_y, rng)


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
    branches = []
    for br in measure_modes(state, measured):
        pattern = tuple(c for _, c in br.outcome)
        flag_a = pattern[:2] == (1, 0)
        flag_b = pattern[2:] == (1, 0)
        out = br.post_state
        corrections = []
        if flag_a:
            for m in b_modes_a:
                out = fock.phase_on_mode(out, m, math.pi)
                corrections.append(("phase", m, math.pi))
        if flag_b:
            for m in b_modes_b:
                out = fock.phase_on_mode(out, m, math.pi)
                corrections.append(("phase", m, math.pi))
        branches.append({"pattern": pattern, "p": br.probability, "ok": True, "state": out,
                         "corrections": corrections})
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
    branches = []
    for br in measure_modes(state, [anc1, anc2]):
        pattern = tuple(c for _, c in br.outcome)
        # both parities are usable; the even one is the post-selected view
        branches.append({"pattern": pattern, "parity": 0 if pattern == (0, 1) else 1,
                         "p": br.probability, "ok": True, "state": br.post_state})
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
    res = resource or make_resource("pnprime", n)
    if res.state.modes != 4 * n:
        raise ProtocolError("resource size does not match n")
    flavor = res.roles.get("parity", 0)
    flip = lambda k1, k2: 0
    result = _teleported_gate_result(state, mode_x, mode_y, n, res, flip, flip, rng)
    if result.succeeded:
        parity = (result.details["k1"] + result.details["k2"] + flavor) % 2
        result.details["parity"] = parity
        if "branches" in result.details:
            for b in result.details["branches"]:
                if b["ok"]:
                    b["parity"] = (b["k1"] + b["k2"] + flavor) % 2
    return result


def parity_project_ideal(state: FockState, mode_x: int, mode_y: int):
    """Oracle parity projection (non-destructive, modes kept in place)."""
    fock._check_mode(state.modes, mode_x)
    fock._check_mode(state.modes, mode_y)
    total = _weight(state)
    sectors = {0: {}, 1: {}}
    for occ, amp in state.terms():
        sectors[(occ[mode_x] + occ[mode_y]) % 2][occ] = amp
    out = []
    for parity in (0, 1):
        amps = sectors[parity]
        weight = sum(abs(a) ** 2 for a in amps.values())
        if weight / total < IMPOSSIBLE:
            continue
        out.append({"parity": parity, "p": weight / total,
                    "state": _projection(state.modes, amps, weight)})
    return out


def _parity_check(state, mode_x, mode_y, n, ideal):
    """The parity check that teleport_with_e and distribute_entanglement build on.

    Returns (branches, p_gadget): the oracle projection when ``ideal``,
    else the teleported gadget's branches in its order, failures included.
    A branch with ``ok`` also carries ``inner`` (where mode_x and mode_y now
    sit), ``final`` (where any other input mode now sits) and ``leftovers``.
    """
    if ideal:
        return [dict(b, ok=True, inner=(mode_x, mode_y), final=lambda m: m, leftovers=[])
                for b in parity_project_ideal(state, mode_x, mode_y)], 1.0
    res = parity_measure(state, mode_x, mode_y, n)
    final = res.details["layout"].final
    branches = [b if not b["ok"] else
                {"parity": b["parity"], "p": b["p"], "ok": True, "state": b["state"],
                 "inner": (b["target_x"], b["target_y"]), "final": final,
                 "leftovers": b["leftover_modes"]}
                for b in res.details["branches"]]
    return branches, res.success_probability


def teleport_with_e(alpha0: complex, alpha1: complex, n: int = 2, rng=None,
                    ideal_parity: bool = False) -> ProtocolResult:
    """Full teleportation with the traditional entangled resource.

    The Bell measurement is decomposed into the nondestructive parity
    measurement on the two inner modes followed by balanced splitters and
    four counters that fix the sign. Pauli-style corrections (a pi phase
    and/or a mode swap on the output pair) restore the input, and the
    whole thing succeeds exactly when the parity gadget does. The branch
    list holds the gadget's failures first, then the sign-decode branches.
    """
    state = tensor(encode_qubit(alpha0, alpha1), make_resource("e").state)
    trace = []
    _trace_step(trace, "adjoin-e", "prep")
    checked, p_gadget = _parity_check(state, 1, 2, n, ideal_parity)
    bal = element_matrix(BeamSplitter(0, 1, BALANCED))
    branches = []
    for pb in checked:
        if not pb["ok"]:
            continue
        inner1, inner2 = pb["inner"]
        outer2 = pb["final"](3)
        work = apply_unitary(pb["state"], bal, [0, inner1])
        work = apply_unitary(work, bal, [inner2, outer2])
        four = sorted([0, inner1, inner2, outer2])
        oa, ob = (_shift_index(pb["final"](m), four) for m in (4, 5))
        for br in measure_modes(work, four):
            pattern = dict(br.outcome)
            sign = "+" if (pattern[0] == 1) == (pattern[inner2] == 1) else "-"
            out = br.post_state
            corrections = []
            if pb["parity"] % 2 == 1:
                out = fock.swap_modes(out, oa, ob)
                corrections.append(("swap", oa, ob))
            if sign == "+":
                out = fock.phase_on_mode(out, oa, math.pi)
                corrections.append(("phase", oa, math.pi))
            branches.append({"parity": pb["parity"], "pattern": tuple(br.outcome),
                             "sign": sign, "p": pb["p"] * br.probability, "ok": True,
                             "state": out, "out_pair": (oa, ob), "corrections": corrections})
    # end to end, the parity gadget can fail before the sign decode
    branches = [b for b in checked if not b["ok"]] + branches
    chosen = _resolve(branches, rng)
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
    the acceptance probability is taken over the branches past the gadget.
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
    for b in _parity_check(state, 0, 1, n, method == "ideal")[0]:
        if not b["ok"]:
            branches.append({"parity": None, "p": b["p"], "ok": False, "state": b["state"],
                             "accepted": False, "remote": None,
                             "gadget_failure": {"stage": b["stage"], "projected": b["projected"]}})
            continue
        remote = (b["final"](2), b["final"](3))
        if b["parity"] == 1:
            branches.append({"parity": 1, "p": b["p"], "ok": True, "state": b["state"],
                             "accepted": True, "remote": remote, "local": b["inner"],
                             "leftovers": b["leftovers"]})
            continue
        meas = sorted(b["inner"])
        for sub in measure_modes(b["state"], meas):
            branches.append({"parity": 0, "p": b["p"] * sub.probability, "ok": False,
                             "state": sub.post_state, "accepted": False,
                             "remote": tuple(_shift_index(m, meas) for m in remote)})
    reported = [b for b in branches if b["parity"] is not None]
    p_accept = sum(b["p"] for b in reported if b["accepted"]) / sum(b["p"] for b in reported)
    chosen = _resolve(branches, rng)
    _trace_step(trace, "parity", "measure", p=chosen["p"], outcome=chosen["parity"])
    details = {"acceptance_probability": p_accept}
    if rng is None:
        details["branches"] = branches
    else:
        details["branch"] = chosen
    return _result(chosen, p_accept if rng is None else None, details, trace,
                   lambda b: b.get("gadget_failure") or {"parity": 0})
