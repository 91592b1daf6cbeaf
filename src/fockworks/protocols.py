"""Post-selected and teleported gate protocols on dual-rail bosonic qubits.

Qubit convention: logical |0> is one photon in the *second* mode of the
pair (occupation 01), logical |1> is one photon in the first (10).

Every gadget returns a ProtocolResult. With ``rng=None`` the gadget is
evaluated analytically: the returned output is the post-selected success
branch and ``details["branches"]`` enumerates every measurement outcome
with its exact probability. With an ``rng`` the measurement outcomes are
sampled instead, one trajectory end to end.

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
from .measure import _drawer, measure_modes, postselect, sample_from_branches
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


def _pick_branch(branches, rng):
    """One branch dict, drawn with its probability ``p``."""
    return branches[_drawer([b["p"] for b in branches])(rng.random())]


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
    if rng is None:
        branch = postselect(work, [m, m + 1], network.accept)
        _trace_step(trace, "ns1-herald", "measure", p=branch.probability,
                    outcome=list(network.accept))
        return ProtocolResult(
            succeeded=True,
            success_probability=branch.probability,
            output_state=branch.post_state,
            trace=trace,
            details={"accept": network.accept},
        )
    branches = measure_modes(work, [m, m + 1])
    branch = sample_from_branches(branches, rng)
    pattern = tuple(c for _, c in branch.outcome)
    ok = pattern == network.accept
    _trace_step(trace, "ns1-herald", "measure", p=branch.probability, outcome=list(pattern))
    return ProtocolResult(
        succeeded=ok,
        success_probability=None,
        output_state=branch.post_state,
        failure_info=None if ok else {"detector": "ns1-ancilla", "outcome": pattern},
        trace=trace,
        details={"accept": network.accept},
    )


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
        return ProtocolResult(True, 1.0, csign_ideal_modes(state, mode_x, mode_y))
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
            branch = measure_modes(out, leftovers)[0] if rng is None else sample_from_branches(
                measure_modes(out, leftovers), rng)
            out = branch.post_state
            tx = _shift_index(tx, leftovers)
            ty = _shift_index(ty, leftovers)
        # relabel so the teleported modes sit where the inputs were
        order = [m for m in range(out.modes) if m not in (tx, ty)]
        perm = []
        cursor = iter(order)
        for m in range(out.modes):
            if m == mode_x:
                perm.append(tx)
            elif m == mode_y:
                perm.append(ty)
            else:
                perm.append(next(cursor))
        out = fock.permute_modes(out, perm)
        return ProtocolResult(True, res.success_probability, out,
                              corrections=res.corrections, trace=res.trace,
                              details=res.details)
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
    if rng is None:
        return outcomes
    pick = sample_from_branches(branches, rng)
    return next(o for o in outcomes if o.pattern == tuple(c for _, c in pick.outcome))


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
            projected = 0 if o.total == 0 else 1
            entry.update(ok=False, projected=projected, state=o.post_state)
        branches.append(entry)
    p_success = sum(b["p"] for b in branches if b["ok"])
    if rng is None:
        first = next(b for b in branches if b["ok"])
        _trace_step(trace, "bm1", "measure", p=first["p"], outcome=list(first["pattern"]))
        return ProtocolResult(True, p_success, first["state"],
                              corrections=first["corrections"], trace=trace,
                              details={"branches": branches, "target_mode": target})
    chosen = _pick_branch(branches, rng)
    _trace_step(trace, "bm1", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    if chosen["ok"]:
        return ProtocolResult(True, None, chosen["state"], corrections=chosen["corrections"],
                              trace=trace, details={"target_mode": target})
    return ProtocolResult(False, None, chosen["state"],
                          failure_info={"projected_mode": input_mode, "value": chosen["projected"]},
                          trace=trace, details={"target_mode": target})


# ---------------------------------------------------------------------------
# near-deterministic teleportation through the Fourier multiport
# ---------------------------------------------------------------------------


def _fourier_branches(work: FockState, fourier_modes, n: int):
    """Apply the (n+1)-point transform to fourier_modes and enumerate counts.

    Yields (pattern, k, S, probability, post_state) with S = sum_j j*r_j.
    """
    evolved = apply_unitary(work, fourier_matrix(n), fourier_modes)
    for br in measure_modes(evolved, fourier_modes):
        pattern = tuple(c for _, c in br.outcome)
        k = sum(pattern)
        s = sum(j * r for j, r in enumerate(pattern))
        yield pattern, k, s, br.probability, br.post_state


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
    work = tensor(state, res.state)
    fourier_modes = [input_mode] + [m0 + i for i in range(n)]
    measured = sorted(fourier_modes)
    omega = 2 * math.pi / (n + 1)
    branches = []
    for pattern, k, s, p, post in _fourier_branches(work, fourier_modes, n):
        entry = {"pattern": pattern, "k": k, "p": p}
        if 0 < k < n + 1:
            target = _shift_index(m0 + n + k - 1, measured)
            angle = (omega * s) % (2 * math.pi)
            corrected = fock.phase_on_mode(post, target, angle)
            entry.update(ok=True, target_mode=target, state=corrected,
                         corrections=[("phase", target, angle)])
        else:
            entry.update(ok=False, projected=0 if k == 0 else 1, state=post)
        branches.append(entry)
    p_success = sum(b["p"] for b in branches if b["ok"])
    p_failure = sum(b["p"] for b in branches if not b["ok"])
    details = {"branches": branches, "failure_probability": p_failure, "n": n}
    trace = []
    _trace_step(trace, "fourier", "element", modes=fourier_modes)
    if rng is None:
        first = next(b for b in branches if b["ok"])
        _trace_step(trace, "bm-n", "measure", p=first["p"], outcome=list(first["pattern"]))
        return ProtocolResult(True, p_success, first["state"],
                              corrections=first["corrections"], trace=trace, details=details)
    chosen = _pick_branch(branches, rng)
    _trace_step(trace, "bm-n", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    if chosen["ok"]:
        return ProtocolResult(True, None, chosen["state"], corrections=chosen["corrections"],
                              trace=trace, details={"target_mode": chosen["target_mode"], "n": n})
    return ProtocolResult(False, None, chosen["state"],
                          failure_info={"projected_mode": input_mode, "value": chosen["projected"]},
                          trace=trace, details={"n": n})


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
        leftovers = [m for m in last_x + last_y if m not in (tx, ty)]
        return tx, ty, leftovers


def _teleported_gate_branches(state, mode_x, mode_y, n, resource, flip_x, flip_y):
    """Branch tree for gate teleportation through a 4n-mode resource.

    flip_x(k1, k2) / flip_y(k1, k2) give extra pi multiples applied to
    the target |1> components on top of the common pattern phases
    omega^(sum j r_j). Returns (branches, layout).
    """
    m0 = state.modes
    layout = _TeleportLayout(m0, mode_x, mode_y, n)
    work = tensor(state, resource.state)
    omega = 2 * math.pi / (n + 1)
    branches = []
    for pat1, k1, s1, p1, post1 in _fourier_branches(work, layout.fourier_x, n):
        if not 0 < k1 < n + 1:
            branches.append({"ok": False, "stage": 1, "pattern1": pat1, "k1": k1,
                             "p": p1, "state": post1, "projected": 0 if k1 == 0 else 1})
            continue
        for pat2, k2, s2, p2, post2 in _fourier_branches(post1, layout.fourier_y, n):
            entry = {"pattern1": pat1, "k1": k1, "pattern2": pat2, "k2": k2, "p": p1 * p2}
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
    branches, layout = _teleported_gate_branches(state, mode_x, mode_y, n, resource, flip_x, flip_y)
    p_success = sum(b["p"] for b in branches if b["ok"])
    if rng is None:
        # post-selected view; inputs with no success channel (p = 0) fall
        # through to the most likely detected failure
        chosen = next((b for b in branches if b["ok"]),
                      max(branches, key=lambda b: b["p"]))
        known_p = p_success
        all_branches = branches
    else:
        chosen = _pick_branch(branches, rng)
        known_p = None
        all_branches = None
    details = {"n": n, "layout": layout}
    if all_branches is not None:
        details["branches"] = all_branches
        details["success_probability"] = p_success
    if chosen["ok"]:
        details.update(target_x=chosen["target_x"], target_y=chosen["target_y"],
                       leftover_modes=chosen["leftover_modes"],
                       k1=chosen["k1"], k2=chosen["k2"])
        return ProtocolResult(True, known_p, chosen["state"],
                              corrections=chosen["corrections"], details=details)
    failed_mode = mode_x if chosen["stage"] == 1 else mode_y
    details["branch"] = chosen
    return ProtocolResult(False, known_p, chosen["state"],
                          corrections=chosen.get("corrections", []),
                          failure_info={"projected_mode": failed_mode,
                                        "value": chosen["projected"],
                                        "stage": chosen["stage"]},
                          details=details)


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
    layout = res.details.get("layout")
    if layout is not None:
        if res.succeeded:
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
        fail = ledger.failure
        return ProtocolResult(False, None, fail.output_state,
                              failure_info=fail.failure_info, trace=ledger.trace,
                              details={"csign_count": ledger.count})
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
        fail = ledger.failure
        return ProtocolResult(False, None, fail.output_state, failure_info=fail.failure_info,
                              details={"csign_count": ledger.count})
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
        branches.append({"pattern": pattern, "p": br.probability, "state": out,
                         "corrections": corrections})
    details = {"csign_count": ledger.count, "branches": branches}
    if rng is None:
        first = branches[0]
        return ProtocolResult(True, ledger.probability, first["state"],
                              corrections=first["corrections"], details=details)
    chosen = _pick_branch(branches, rng)
    return ProtocolResult(True, None, chosen["state"], corrections=chosen["corrections"],
                          details={"csign_count": ledger.count, "pattern": chosen["pattern"]})


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
        fail = ledger.failure
        return ProtocolResult(False, None, fail.output_state, failure_info=fail.failure_info,
                              details={"csign_count": ledger.count})
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, BALANCED)), [anc1, anc2])
    state = fock.phase_on_mode(state, anc1, math.pi)
    branches = measure_modes(state, [anc1, anc2])
    entries = []
    for br in branches:
        pattern = tuple(c for _, c in br.outcome)
        parity = 0 if pattern == (0, 1) else 1
        entries.append({"pattern": pattern, "parity": parity, "p": br.probability,
                        "state": br.post_state})
    details = {"csign_count": ledger.count, "branches": entries}
    if rng is None:
        chosen = next(e for e in entries if e["parity"] == 0)
    else:
        chosen = _pick_branch(entries, rng)
    details["parity"] = chosen["parity"]
    return ProtocolResult(True, ledger.probability if rng is None else None,
                          chosen["state"], details=details)


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
    total = state.norm() ** 2
    sectors = {0: {}, 1: {}}
    for occ, amp in state.terms():
        sectors[(occ[mode_x] + occ[mode_y]) % 2][occ] = amp
    out = []
    for parity in (0, 1):
        amps = sectors[parity]
        weight = sum(abs(a) ** 2 for a in amps.values())
        if weight / total < 1e-24:
            continue
        post = FockState(state.modes, amps).scaled(1 / math.sqrt(weight))
        out.append({"parity": parity, "p": weight / total, "state": post})
    return out


def teleport_with_e(alpha0: complex, alpha1: complex, n: int = 2, rng=None,
                    ideal_parity: bool = False) -> ProtocolResult:
    """Full teleportation with the traditional entangled resource.

    The Bell measurement is decomposed into the nondestructive parity
    measurement on the two inner modes followed by balanced splitters and
    four counters that fix the sign. Pauli-style corrections (a pi phase
    and/or a mode swap on the output pair) restore the input, and the
    whole thing succeeds exactly when the parity gadget does.
    """
    state = tensor(encode_qubit(alpha0, alpha1), make_resource("e").state)
    trace = []
    _trace_step(trace, "adjoin-e", "prep")
    gadget_failures = []
    if ideal_parity:
        parity_branches = [
            {"parity": br["parity"], "p": br["p"], "state": br["state"],
             "inner": (1, 2), "outer2": 3, "out_pair": (4, 5)}
            for br in parity_project_ideal(state, 1, 2)
        ]
        p_gadget = 1.0
    else:
        res = parity_measure(state, 1, 2, n, rng=None)
        p_gadget = res.success_probability
        layout = res.details["layout"]
        parity_branches = []
        for b in res.details["branches"]:
            if not b["ok"]:
                gadget_failures.append(b)
                continue
            parity_branches.append({
                "parity": b["parity"], "p": b["p"], "state": b["state"],
                "inner": (b["target_x"], b["target_y"]),
                "outer2": layout.final(3),
                "out_pair": (layout.final(4), layout.final(5)),
            })
    branches = []
    for pb in parity_branches:
        inner1, inner2 = pb["inner"]
        out_a, out_b = pb["out_pair"]
        outer2 = pb["outer2"]
        work = pb["state"]
        bal = element_matrix(BeamSplitter(0, 1, BALANCED))
        work = apply_unitary(work, bal, [0, inner1])
        work = apply_unitary(work, bal, [inner2, outer2])
        four = sorted([0, inner1, inner2, outer2])
        for br in measure_modes(work, four):
            pattern = dict(br.outcome)
            d0, d2 = pattern[0], pattern[inner2]
            sign = "+" if (d0 == 1) == (d2 == 1) else "-"
            out = br.post_state
            oa = _shift_index(out_a, four)
            ob = _shift_index(out_b, four)
            corrections = []
            if pb["parity"] % 2 == 1:
                out = fock.swap_modes(out, oa, ob)
                corrections.append(("swap", oa, ob))
            if sign == "+":
                out = fock.phase_on_mode(out, oa, math.pi)
                corrections.append(("phase", oa, math.pi))
            branches.append({"parity": pb["parity"], "pattern": tuple(br.outcome),
                             "sign": sign, "p": pb["p"] * br.probability,
                             "state": out, "out_pair": (oa, ob),
                             "corrections": corrections})
    details = {"branches": branches, "gadget_success": p_gadget}
    if rng is None:
        chosen = branches[0]
        return ProtocolResult(True, p_gadget, chosen["state"], corrections=chosen["corrections"],
                              trace=trace, details=details)
    # end-to-end sample: the parity gadget can fail before the sign decode
    candidates = gadget_failures + branches
    pick = _drawer([b["p"] for b in candidates])(rng.random())
    chosen = candidates[pick]
    if pick < len(gadget_failures):
        return ProtocolResult(False, None, chosen["state"],
                              failure_info={"stage": chosen["stage"],
                                            "projected": chosen["projected"]},
                              trace=trace, details={"branch": chosen})
    return ProtocolResult(True, None, chosen["state"], corrections=chosen["corrections"],
                          trace=trace, details={"branch": chosen})


def distribute_entanglement(n: int = 2, rng=None, method: str = "gadget") -> ProtocolResult:
    """Share a Bell pair using two independent photons and a parity check.

    Each photon is split between a local and a remote mode; accepting odd
    local parity leaves the remote pair maximally entangled with the
    (teleported) local pair. On even parity the local modes are measured
    out, collapsing the remote side to a product state.
    """
    half_a = FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): -1 / math.sqrt(2)})
    half_b = FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): 1 / math.sqrt(2)})
    # photon A across (local 0, remote 2); photon B across (local 1, remote 3)
    state = tensor(half_a, half_b)
    state = fock.permute_modes(state, [0, 2, 1, 3])
    if method == "ideal":
        branches = []
        for br in parity_project_ideal(state, 0, 1):
            if br["parity"] == 1:
                branches.append({"parity": 1, "p": br["p"], "state": br["state"],
                                 "accepted": True, "remote": (2, 3), "local": (0, 1)})
            else:
                for sub in measure_modes(br["state"], [0, 1]):
                    branches.append({"parity": 0, "p": br["p"] * sub.probability,
                                     "state": sub.post_state, "accepted": False,
                                     "remote": (0, 1)})
        p_accept = sum(b["p"] for b in branches if b["accepted"])
    elif method == "gadget":
        res = parity_measure(state, 0, 1, n, rng=None)
        layout = res.details["layout"]
        branches = []
        for b in res.details["branches"]:
            if not b["ok"]:
                branches.append({"parity": None, "p": b["p"], "state": b["state"],
                                 "accepted": False, "remote": None,
                                 "gadget_failure": {"stage": b["stage"],
                                                    "projected": b["projected"]}})
                continue
            remote = (layout.final(2), layout.final(3))
            locals_ = (b["target_x"], b["target_y"])
            if b["parity"] == 1:
                branches.append({"parity": 1, "p": b["p"], "state": b["state"],
                                 "accepted": True, "remote": remote, "local": locals_,
                                 "leftovers": b["leftover_modes"]})
            else:
                meas = sorted(locals_)
                for sub in measure_modes(b["state"], meas):
                    branches.append({"parity": 0, "p": b["p"] * sub.probability,
                                     "state": sub.post_state, "accepted": False,
                                     "remote": tuple(_shift_index(m, meas) for m in remote)})
        reported = [b for b in branches if b["parity"] is not None]
        p_success = sum(b["p"] for b in reported)
        p_accept = sum(b["p"] for b in reported if b["accepted"]) / p_success
    else:
        raise ProtocolError(f"unknown method {method!r}")
    details = {"branches": [b for b in branches if b["parity"] is not None],
               "acceptance_probability": p_accept}
    if rng is None:
        chosen = next(b for b in branches if b["accepted"])
        return ProtocolResult(True, p_accept, chosen["state"], details=details)
    weights = [b["p"] for b in branches]
    chosen = branches[_drawer(weights)(rng.random() * sum(weights))]
    fail = None
    if not chosen["accepted"]:
        fail = chosen.get("gadget_failure") or {"parity": 0}
    return ProtocolResult(chosen["accepted"], None, chosen["state"],
                          failure_info=fail,
                          details={"branch": chosen, "acceptance_probability": p_accept})
