"""Post-selected and teleported gate protocols on dual-rail bosonic qubits.

Qubit convention: logical |0> is one photon in the *second* mode of the
pair (occupation 01), logical |1> is one photon in the first (10).

Every gadget returns a ProtocolResult. With ``rng=None`` the gadget is
evaluated analytically: every outcome of every detection is listed with its
exact probability. With an ``rng`` one trajectory is drawn stage by stage,
and each stage lists only its drawn outcome. A detection counts some modes
(after a mode unitary, for the Fourier multiports) into ``measure._Records``,
the branch record; one stage is classified at once (``_detect``) into a
``_Branches``, exact or sampled: the ``p`` and ``ok`` columns, from which
the resolver (``_resolve``) and the probabilities are read, and a branch's
dict, built from the records only when the branch is read. A sampled list
is the same type with one row. A two-stage gadget (the sign-flip pair, a
teleported gate, the sign decode or local readout after a parity check)
runs stage 2 on each stage-1 row it expands, in row order, and ``_splice``
lists both as one ``_Branches``: each expanded row gives way to its stage-2
rows, ``p`` the product of the two. The output is the
resolved branch, the first success (the post-selected view), and
``_result`` assembles the result: exact, it reports the success
probability and the whole list as ``details["branches"]``; sampled,
neither. An exact detection behind a unitary takes its records from
``measure._evolved_groups`` (the second detections of a teleported gate in
one array pass, handed the first stage's successes as arrays by
``measure._projected``); a sampled one draws its pattern through
``measure._sample_detection``, equal to the exact branch to 1e-10.

A branch dict carries ``p``, ``ok`` (whether the gadget succeeded) and
``state`` (the post-measurement state, corrections applied, built when its
terms are first read: ``measure._Records.state``), plus ``corrections`` (the
``("phase", mode, angle)`` / ``("swap", a, b)`` feed-forward) when one was
applied. Gadgets add their own keys: the detected ``pattern``
(``pattern1``/``pattern2`` per teleportation stage), ``k1``/``k2``,
``parity``, ``sign``, ``accepted``, ``stage``, ``projected`` and the
probabilities of their stages (``p1``/``p2``, ``p_parity``/``p_sign``, the
(p, pattern) ``heralds`` of the sign-flip pair).

Phase corrections after Fourier-multiport measurements follow the detected
pattern {r_j}: the |1> component of the target mode is rotated by
prod_j w^{j r_j} (w the primitive (n+1)-th root of unity), plus pi flips
keyed to the detected totals for the gate-teleportation variants; the test
suite checks them against brute-force branch projection.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from numbers import Integral

import numpy as np

from . import fock, measure, optics
from .fock import FockError, FockState, number_state, tensor
from .measure import IMPOSSIBLE, _drawer, _projection, _sample_detection, _weight, measure_modes
from .optics import (BeamSplitter, ElementSequence, ModeUnitary, apply_unitary, compose,
                     decompose_reck, element_matrix, fourier_matrix)

BALANCED = math.pi / 4
#: Branches whose dicts an iteration of ``_Branches`` builds together.
_RUN = 512


class UnsupportedInputError(FockError):
    """Input state outside a gadget's admissible support."""


class ProtocolError(FockError):
    """Unknown protocol, resource kind, or strategy."""


# -- results and bookkeeping --------------------------------------------------


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


@cache
def _balanced(sign: int) -> ModeUnitary:
    """The balanced splitter (``sign`` 1) or its inverse (-1), built and
    checked once, then shared, as ``fourier_matrix`` is per n."""
    return element_matrix(BeamSplitter(0, 1, sign * BALANCED))


def _shift_index(index: int, measured_sorted) -> int:
    """Index of a surviving mode after the given sorted modes are removed."""
    if index in measured_sorted:
        raise ValueError(f"mode {index} was measured away")
    return index - sum(m < index for m in measured_sorted)


def _records(work, modes, rng, unitary=None):
    """A detection's ``measure._Records``: every count pattern of ``modes``
    (after ``unitary`` acts on them) with ``rng=None``, from
    ``measure._evolved_groups`` behind a unitary; with an rng the one drawn,
    by ``measure._sample_detection`` behind a unitary, else by one draw."""
    if unitary is None:
        records = measure_modes(work, modes)
        return records if rng is None else records.drawn(rng)
    if rng is None:
        return next(measure._evolved_groups([work], unitary, modes))
    return _sample_detection(work, unitary, modes, rng)


def _detect(work, modes, classify, rng, unitary=None):
    """One detection stage: ``_classified(_records(work, modes, rng, unitary), classify)``."""
    return _classified(_records(work, modes, rng, unitary), classify)


def _classified(records, classify):
    """The ``_Branches`` of a stage's records, every pattern or the one
    drawn. ``classify(counts, p, state)`` is called once with the count
    array (k and s of every row from ``_totals``), the ``p`` column and
    ``state(i, corrections=())``, branch ``i``'s lazy post-state; it
    returns the ``ok`` column and ``branch(i, pattern)``, which makes branch
    ``i``'s dict: ``pattern``, ``p``, its own keys, then ``state``. The
    ``p`` column it gets is a memoryview of the float64 array, so ``p[i]``
    is a Python float, as a branch dict holds."""
    counts = records.counts
    ok, branch = classify(counts, memoryview(records.p), records.state)

    def build(start, stop):
        return list(map(branch, range(start, stop), _rows(counts[start:stop])))

    return _Branches(records.p, ok, build)


def _totals(counts):
    """k = sum_j r_j and s = sum_j j*r_j of every pattern {r_j}, a row of
    ``counts``, as int64 arrays: from one float64 product, exact while
    both stay below 2^53 (the largest count times 0 + 1 + ... + m bounds
    them), else in int64."""
    m = counts.shape[1]
    if int(counts.max(initial=0)) * (m * (m + 1) // 2) >> 53:
        return counts.sum(1, dtype=np.int64), counts @ np.arange(m)
    both = (counts @ np.arange(m)[:, None] ** np.array([0.0, 1.0])).astype(np.int64)  # [1, j]
    return both[:, 0], both[:, 1]


def _rows(counts):
    """The rows of the int array ``counts`` as tuples of ints."""
    return list(zip(*counts.T.tolist())) if counts.shape[1] else [()] * len(counts)


class _Branches(Sequence):
    """A branch list as columns (a sampled run's has one row): ``p``, ``ok``
    and a parity check's ``parity`` (else None), every branch's probability,
    success flag and parity (-1 off the successes) as arrays, and
    ``build(start, stop)``, which makes the dicts of branches ``start`` to
    ``stop - 1``. A dict, with its lazy state, is built when its branch is
    first read (iterating builds the unread ones of a run of ``_RUN`` at once)
    and then kept: ``branches[i] is branches[i]``, and an edit to one persists."""

    __slots__ = ("p", "ok", "parity", "_build", "_dicts")

    def __init__(self, p, ok, build, parity=None):
        self.p, self.ok = np.asarray(p, dtype=float), np.asarray(ok, dtype=bool)
        self.parity, self._build, self._dicts = parity, build, [None] * len(p)

    def __len__(self):
        return len(self.p)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.p))[i]]
        i = range(len(self.p))[i]
        if self._dicts[i] is None:
            (self._dicts[i],) = self._build(i, i + 1)
        return self._dicts[i]

    def __iter__(self):
        dicts = self._dicts
        for start in range(0, len(dicts), _RUN):
            stop = min(start + _RUN, len(dicts))
            if None in dicts[start:stop]:  # build each stretch of unread branches at once
                at = start
                for i in [i for i in range(start, stop) if dicts[i] is not None] + [stop]:
                    if at < i:
                        dicts[at:i] = self._build(at, i)
                    at = i + 1
            yield from dicts[start:stop]

    def mass(self, ok=True):
        """The summed ``p`` of the branches whose ``ok`` is ``ok``, added left to right."""
        return _added(self.p[self.ok if ok else ~self.ok])


def _added(values):
    """The float ``values`` (a sequence or an array) added left to right
    from 0.0, as ``sum`` adds them before CPython 3.12, whose ``sum``
    compensates the rounding: ``np.add.accumulate`` adds one term at a time."""
    total = np.add.accumulate(np.asarray(values, dtype=float))
    # 0.0 + x is x, but for x = -0.0
    return float(total[-1]) + 0.0 if len(total) else 0.0


def _splice(p1, ok1, expand, seconds, row, kept_first=False, ok2=None, columns=()):
    """(branches, first): a two-stage gadget's ``_Branches`` and each row's
    stage-1 row. The stage-1 rows (``p1``, ``ok1``) keep their order (with
    ``kept_first``, those not expanded go first); a row with ``expand`` set
    gives way to the rows of the next of ``seconds``, its stage-2 list, whose
    ``p`` is p1 * p2 and ``ok`` their own (or ``ok2``). ``row(p, i, two)``
    makes a row's dict from stage-1 row i: ``two`` is None, or (at, j, ...)
    for row j of ``seconds[at]`` and its entries of the stage-2 ``columns``."""
    sizes = np.array([len(two) for two in seconds], dtype=np.int64)
    spans = np.ones(len(p1), dtype=np.int64)
    spans[expand] = sizes
    order = np.argsort(expand, kind="stable") if kept_first else np.arange(len(p1))
    first = np.repeat(order, spans[order])
    staged = expand[first]
    second = np.cumsum(staged) - staged  # the stage-2 rows before a row: its own if staged
    p, ok = p1[first], ok1[first]
    p[staged] *= np.concatenate([p[:0]] + [two.p for two in seconds])
    ok[staged] = np.concatenate([ok[:0]] + [two.ok for two in seconds]) if ok2 is None else ok2
    # each stage-2 row's list and its row there
    where = (np.repeat(np.arange(len(sizes)), sizes),
             np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes))

    def build(start, stop):
        # a run of rows holds one run of stage-2 rows, converted together
        lo, hi = second[start], second[stop - 1] + staged[stop - 1]
        twos = zip(*(column[lo:hi].tolist() for column in where + columns))
        return [row(pg, i, next(twos) if two else None) for pg, i, two in
                zip(p[start:stop].tolist(), first[start:stop].tolist(), staged[start:stop].tolist())]

    return _Branches(p, ok, build), first


def _resolve(branches):
    """The branch a run lands on: the post-selected view, the first branch
    with ``ok`` set, or the likeliest branch when none succeeds (an input
    with no success channel), found from the ``_Branches`` columns. A
    sampled run's one-row list resolves to its row, with no draw."""
    ok, p = branches.ok, branches.p
    first = ok.argmax()  # the first success, or 0 when none succeeds
    return branches[int(first if ok[first] else p.argmax())]


def _result(chosen, branches, rng, details, trace, failure=None, p=None) -> ProtocolResult:
    """The ProtocolResult of the resolved branch, its state built. Exact
    (``rng=None``), ``details["branches"]`` is the list and the success
    probability ``p``, by default the ok mass of ``branches``; a sampled
    run, which knows only its drawn rows, reports neither.
    ``failure(chosen)`` builds the failure_info, for the chosen branch only."""
    if rng is None:
        details["branches"] = branches
        p = branches.mass() if p is None else p
    else:
        p = None
    ok = chosen["ok"]
    chosen["state"].term_count()
    return ProtocolResult(ok, p, chosen["state"], corrections=chosen.get("corrections", []),
                          failure_info=None if ok else failure(chosen), trace=trace,
                          details=details)


def _trace_step(trace, label, kind, p=1.0, **extra):
    cum = trace[-1]["cum_p"] * p if trace else p
    trace.append({"step": label, "kind": kind, "p": p, "cum_p": cum, **extra})


# -- dual-rail qubits ---------------------------------------------------------


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
    fock._check_modes(state.modes, [q.a, q.b])
    good = sum(abs(amp) ** 2 for occ, amp in state.terms() if (occ[q.a], occ[q.b]) in ((0, 1), (1, 0)))
    return good / state.norm() ** 2


def require_coherent(state: FockState, q: BosonicQubit, tol: float = 1e-10):
    w = qubit_coherence_weight(state, q)
    if abs(w - 1.0) > tol:
        raise UnsupportedInputError(f"modes ({q.a},{q.b}) are not a coherent dual-rail qubit (weight {w})")


def factor_out(state: FockState, modes) -> FockState:
    """State restricted to ``modes`` when everything else is a fixed product."""
    modes = fock._check_modes(state.modes, modes)
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
    out = apply_unitary(state, _balanced(1), [q.a, q.b])
    return fock.phase_on_mode(out, q.a, math.pi)


# -- resource states ----------------------------------------------------------


@dataclass(frozen=True)
class PreparedResource:
    kind: str
    n: int | None
    state: FockState
    roles: dict


def _unary_block(n: int, j: int) -> tuple:
    """Occupations |1>^j |0>^{n-j} ; |0>^j |1>^{n-j} on 2n modes."""
    return (1,) * j + (0,) * (n - j) + (0,) * j + (1,) * (n - j)


def _check_size(n, what):
    """ProtocolError unless the resource size ``n`` is an integer >= 1."""
    if not isinstance(n, Integral) or n < 1:
        raise ProtocolError(f"{what} needs an integer n >= 1, got {n!r}")


def make_resource(kind: str, n: int | None = None, parity: int = 0) -> PreparedResource:
    """Entangled resource states by closed formula (normalized).

    Kinds: 'e', 'b4prime', 'tn', 'tnprime', 'tpn', 'pnprime'. The 'pnprime'
    kind takes parity=0 for the even variant and 1 for the odd one.
    """
    kind = kind.lower()
    bell = {"pair_a": (0, 1), "pair_b": (2, 3)}
    if kind == "e":
        amps = {(0, 1, 1, 0): 1 / math.sqrt(2), (1, 0, 0, 1): -1 / math.sqrt(2)}
        return PreparedResource("e", None, FockState(4, amps), bell)
    if kind == "b4prime":
        amps = {(1, 0, 1, 0): 0.5, (0, 1, 1, 0): 0.5, (1, 0, 0, 1): 0.5, (0, 1, 0, 1): -0.5}
        return PreparedResource("b4prime", None, FockState(4, amps), bell)
    _check_size(n, f"resource {kind!r}")
    groups = dict(zip(("first_x", "last_x", "first_y", "last_y"),
                      (tuple(range(g * n, (g + 1) * n)) for g in range(4))))
    if kind == "tn":
        amps = {_unary_block(n, j): 1 / math.sqrt(n + 1) for j in range(n + 1)}
        roles = {"first": tuple(range(n)), "last": tuple(range(n, 2 * n))}
        return PreparedResource("tn", n, FockState(2 * n, amps), roles)
    if kind == "tnprime":
        amps = {_unary_block(n, j) + _unary_block(n, i): (-1) ** ((n - j) * (n - i) % 2) / (n + 1)
                for j in range(n + 1) for i in range(n + 1)}
        return PreparedResource("tnprime", n, FockState(4 * n, amps), groups)
    if kind == "tpn":
        amps = {_unary_block(n, j) + ((n - j) % 2, (n - j + 1) % 2): 1 / math.sqrt(n + 1)
                for j in range(n + 1)}
        roles = dict(first=tuple(range(n)), last=tuple(range(n, 2 * n)), ancilla=(2 * n, 2 * n + 1))
        return PreparedResource("tpn", n, FockState(2 * n + 2, amps), roles)
    if kind == "pnprime":
        pairs = [(j, i) for j in range(n + 1) for i in range(n + 1) if (i + j) % 2 == parity % 2]
        amps = {_unary_block(n, j) + _unary_block(n, i): 1 / math.sqrt(len(pairs)) for j, i in pairs}
        return PreparedResource("pnprime", n, FockState(4 * n, amps), {**groups, "parity": parity % 2})
    raise ProtocolError(f"unknown resource kind {kind!r}")


# -- the nondeterministic sign gate -------------------------------------------


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
    return ModeUnitary([[1 - s2, 2 ** -0.25, math.sqrt(3 / s2 - 2)],
                        [2 ** -0.25, 0.5, 0.5 - 1 / s2],
                        [math.sqrt(3 / s2 - 2), 0.5 - 1 / s2, s2 - 0.5]])


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

    def classify(counts, p, state):
        ok = [tuple(row) == network.accept for row in counts.tolist()]
        return ok, lambda i, pattern: {"pattern": pattern, "p": p[i], "ok": ok[i], "state": state(i)}

    return _detect(work, [m, m + 1], classify, rng)


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
    chosen = _resolve(branches)
    trace = []
    _ns_trace(trace, mode, state.modes, chosen["p"], chosen["pattern"])
    return _result(chosen, branches, rng, {}, trace,
                   lambda b: {"detector": "ns1-ancilla", "outcome": b["pattern"]})


# -- conditional sign gates ---------------------------------------------------


def csign_modes_ns(state: FockState, mode_x: int, mode_y: int, rng=None) -> ProtocolResult:
    """Mode-level conditional sign via two heralded sign flips (p = 1/16): on
    success the amplitude flips sign exactly when both modes hold a photon
    (on the dual-rail a-modes, the two-qubit gate). The branch list holds the
    ns-x failures, then the ns-y branches on the ns-x success, each with its
    ``stage`` and ``heralds``, the (p, pattern) of each detection passed."""
    work = apply_unitary(state, _balanced(1), [mode_x, mode_y])
    xs = _ns_stage(work, mode_x, rng)
    seconds = [_ns_stage(bx["state"], mode_y, rng) for bx in xs if bx["ok"]]

    def row(p, i, two):
        bx = xs[i]
        if two is None:
            return dict(bx, stage="ns-x", heralds=[(bx["p"], bx["pattern"])])
        by = seconds[two[0]][two[1]]
        by.update(stage="ns-y", p=p, heralds=[(bx["p"], bx["pattern"]), (by["p"], by["pattern"])])
        if by["ok"]:
            by["state"] = apply_unitary(by["state"], _balanced(-1), [mode_x, mode_y])
        return by

    branches, _ = _splice(xs.p, xs.ok, xs.ok, seconds, row, kept_first=True)
    chosen = _resolve(branches)
    trace = []
    _trace_step(trace, "mix", "element", modes=[mode_x, mode_y])
    for mode, (p, pattern) in zip((mode_x, mode_y), chosen["heralds"]):
        _ns_trace(trace, mode, state.modes, p, pattern)
    if chosen["ok"]:
        _trace_step(trace, "unmix", "element", modes=[mode_x, mode_y])
    return _result(chosen, branches, rng, {}, trace,
                   lambda b: {"stage": b["stage"], "detector": "ns1-ancilla", "outcome": b["pattern"]})


def csign_via_ns(state: FockState, q1: BosonicQubit, q2: BosonicQubit, rng=None) -> ProtocolResult:
    """Two-qubit conditional sign on dual-rail qubits, success 1/16."""
    require_coherent(state, q1)
    require_coherent(state, q2)
    return csign_modes_ns(state, q1.a, q2.a, rng=rng)


def csign_ideal_modes(state: FockState, mode_x: int, mode_y: int) -> FockState:
    """Oracle conditional sign: phase (-1)^(n_x n_y)."""
    fock._check_modes(state.modes, [mode_x, mode_y])
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
    fock._check_modes(state.modes, [mode_x, mode_y])
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
            out = _records(out, leftovers, rng).state(0)
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
    spread = _balanced(-1)
    state = apply_unitary(state, spread, [0, 1])
    state = apply_unitary(state, spread, [2, 3])
    res = csign_modes_ns(state, 1, 3, rng=rng)
    res.trace = [{"step": "spread", "kind": "element", "p": 1.0, "cum_p": 1.0}] + res.trace
    res.details["target"] = make_resource("b4prime")
    return res


# -- partial Bell measurement and basic teleportation -------------------------


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
    resource = apply_unitary(number_state((1, 0)), _balanced(1), [0, 1])
    trace = []
    _trace_step(trace, "adjoin-pair", "prep", modes=[m0, m0 + 1])
    work = apply_unitary(tensor(state, resource), _balanced(1), [input_mode, m0])
    target = _shift_index(m0 + 1, sorted([input_mode, m0]))

    def classify(counts, p, state):
        def branch(i, pattern):
            total = sum(pattern)
            if total != 1:
                return {"pattern": pattern, "p": p[i], "total": total, "ok": False,
                        "projected": 0 if total == 0 else 1, "state": state(i)}
            corrections = [("phase", target, math.pi)] if pattern == (1, 0) else []
            return {"pattern": pattern, "p": p[i], "total": total, "ok": True,
                    "corrections": corrections, "target_mode": target,
                    "state": state(i, corrections)}

        return [total == 1 for total in counts.sum(1).tolist()], branch

    branches = _detect(work, [input_mode, m0], classify, rng)
    chosen = _resolve(branches)
    _trace_step(trace, "bm1", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    return _result(chosen, branches, rng, {"target_mode": target}, trace, _projected(input_mode))


# -- near-deterministic teleportation through the Fourier multiport -----------


def _projected(mode):
    """failure_info of a teleportation that projected ``mode`` onto a number state."""
    return lambda b: {"projected_mode": mode, "value": b["projected"]}


def _standard_resource(kind, n, rng):
    """The standard resource ``kind`` of size n; for an exact run (``rng``
    None), ``BudgetExceeded`` before it is built if its term with all n
    photons in the measured group alone has more than ``MAX_EVOLVED_TERMS``
    outputs, C(2n, n)."""
    _check_size(n, f"resource {kind!r}")
    if rng is None:
        optics._within_budget(optics._capped_comb(2 * n, n), f"the evolution at n = {n}", least=True)
    return make_resource(kind, n)


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
    res = resource or _standard_resource("tn", n, rng)
    if res.state.modes != 2 * n:
        raise ProtocolError("resource size does not match n")
    m0 = state.modes
    fourier_modes = [input_mode] + [m0 + i for i in range(n)]
    measured = sorted(fourier_modes)
    omega = 2 * math.pi / (n + 1)
    targets = [None] + [_shift_index(m0 + n + k - 1, measured) for k in range(1, n + 1)]

    def classify(counts, p, state):
        k, s = _totals(counts)
        ok = (0 < k) & (k <= n)
        k, angles = k.tolist(), ((omega * s) % (2 * math.pi)).tolist()
        fixes = [{} for _ in targets]  # one correction per (k, angle): a tuple is immutable

        def branch(i, pattern):
            ki, angle = k[i], angles[i]
            if not ok[i]:
                return {"pattern": pattern, "p": p[i], "k": ki, "ok": False,
                        "projected": 0 if ki == 0 else 1, "state": state(i)}
            fix = [fixes[ki].get(angle) or fixes[ki].setdefault(angle, ("phase", targets[ki], angle))]
            return {"pattern": pattern, "p": p[i], "k": ki, "ok": True, "target_mode": targets[ki],
                    "corrections": fix, "state": state(i, fix)}

        return ok, branch

    branches = _detect(tensor(state, res.state), fourier_modes, classify, rng, fourier_matrix(n))
    trace = []
    _trace_step(trace, "fourier", "element", modes=fourier_modes)
    chosen = _resolve(branches)
    _trace_step(trace, "bm-n", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    details = {"n": n}
    if chosen["ok"]:
        details["target_mode"] = chosen["target_mode"]
    if rng is None:
        details["failure_probability"] = branches.mass(False)
    return _result(chosen, branches, rng, details, trace, _projected(input_mode))


class _TeleportLayout:
    """Mode bookkeeping for the double-teleportation gadgets: the resource's four
    n-mode groups sit after the host's m0 modes; step one measures the x input
    with the first group, step two the (shifted) y input with the third.
    ``final(i)`` maps a work index to its position after both; k photons
    detected in a step land its input on the k-th of ``last_x``/``last_y``."""

    def __init__(self, m0, mode_x, mode_y, n):
        self.m0, self.n = m0, n
        self.fourier_x = [mode_x] + [m0 + i for i in range(n)]
        self.step1 = sorted(self.fourier_x)
        self.y1 = _shift_index(mode_y, self.step1)
        self.fourier_y = [self.y1] + [_shift_index(m0 + 2 * n + i, self.step1) for i in range(n)]
        self.step2 = sorted(self.fourier_y)
        self.last_x = [self.final(m0 + n + i) for i in range(n)]
        self.last_y = [self.final(m0 + 3 * n + i) for i in range(n)]

    def after_step1(self, index: int) -> int:
        return _shift_index(index, self.step1)

    def final(self, index: int) -> int:
        return _shift_index(_shift_index(index, self.step1), self.step2)


def _teleported_gate_branches(state, mode_x, mode_y, n, resource, flip_x, flip_y, rng=None,
                              flavor=None):
    """(branches, layout) of gate teleportation through a 4n-mode resource.

    flip_x(k1, k2) / flip_y(k1, k2), on int arrays, give the pi multiples
    applied to the targets on top of the pattern phases omega^(sum j r_j).
    The tree (``_splice``) lists each stage-1 failure and, in place of each
    success, the branches of its y detection, with ``p1``, ``p2`` and their
    product ``p``; with a ``flavor`` (the parity resource's) a success
    carries its ``parity``, a column of the list too. Exact, the y
    detections run in one array pass (``measure._evolved_groups``) over the
    stage-1 successes handed over as arrays (``measure._projected``); with
    an ``rng`` stage 2 draws on the projected stage-1 state.
    """
    layout = _TeleportLayout(state.modes, mode_x, mode_y, n)
    omega, u = 2 * math.pi / (n + 1), fourier_matrix(n)
    ones = _records(tensor(state, resource.state), layout.fourier_x, rng, u)
    k1, s1 = _totals(ones.counts)
    passed = (0 < k1) & (k1 <= n)
    succeeded = np.flatnonzero(passed).tolist()
    if rng is None:
        seconds = list(measure._evolved_groups(measure._projected(ones, succeeded), u,
                                               layout.fourier_y))
    else:
        seconds = [_records(ones.state(i), layout.fourier_y, rng, u) for i in succeeded]
    sizes = [len(two) for two in seconds]
    counts2 = np.concatenate([ones.counts[:0]] + [two.counts for two in seconds])
    k2, s2 = _totals(counts2)
    ok2 = (0 < k2) & (k2 <= n)
    # a projected y (k2 = 0 or n + 1) undoes the sign the collapsed resource imprinted on x
    k1s, x_phase = np.repeat(k1[passed], sizes), omega * np.repeat(s1[passed], sizes)
    angle_x = np.where(ok2, x_phase + math.pi * flip_x(k1s, k2),
                       x_phase + math.pi * np.where(k2 == 0, n, 0)) % (2 * math.pi)
    angle_y = (omega * s2 + math.pi * flip_y(k1s, k2)) % (2 * math.pi)
    p2 = np.concatenate([ones.p[:0]] + [two.p for two in seconds])
    patterns1, k1, p1s = _rows(ones.counts), k1.tolist(), ones.p.tolist()
    last_x, last_y, fixes_x, fixes_y, patterns2 = [None] + layout.last_x, [None] + layout.last_y, {}, {}, {}
    leftover = [[None] + [[m for m in last_x[1:] + last_y[1:] if m not in (tx, ty)]
                          for ty in last_y[1:]] for tx in last_x]

    def row(pg, i, two):
        pat1, p1, ka = patterns1[i], p1s[i], k1[i]
        if two is None:
            return {"ok": False, "stage": 1, "pattern1": pat1, "k1": ka, "p": p1, "p1": p1,
                    "state": ones.state(i), "projected": 0 if ka == 0 else 1}
        at, j, pat2, kb, ok_y, ax, ay, py = two
        pat2, tx = tuple(pat2), last_x[ka]
        pat2 = patterns2.setdefault(pat2, pat2)  # one tuple per distinct pattern, shared as a correction is
        if not ok_y:
            fixes = [("phase", tx, ax)]
            return {"p": pg, "pattern1": pat1, "k1": ka, "pattern2": pat2, "k2": kb, "p1": p1,
                    "ok": False, "stage": 2, "projected": 0 if kb == 0 else 1, "target_x": tx,
                    "corrections": fixes, "state": seconds[at].state(j, fixes), "p2": py}
        # one x correction per (stage-1 row, k2), one y per (k2, angle), shared: a tuple is immutable
        fixes = [fixes_x.get((i, kb)) or fixes_x.setdefault((i, kb), ("phase", tx, ax)),
                 fixes_y.get((kb, ay)) or fixes_y.setdefault((kb, ay), ("phase", last_y[kb], ay))]
        parity = {} if flavor is None else {"parity": (ka + kb + flavor) % 2}
        return {"p": pg, "pattern1": pat1, "k1": ka, "pattern2": pat2, "k2": kb, "p1": p1,
                "ok": True, "target_x": tx, "target_y": last_y[kb],
                "leftover_modes": list(leftover[ka][kb]), **parity, "corrections": fixes,
                "state": seconds[at].state(j, fixes), "p2": py}

    columns = (counts2, k2, ok2, angle_x, angle_y, p2)
    branches = _splice(ones.p, passed, passed, seconds, row, ok2=ok2, columns=columns)[0]
    if flavor is not None:
        branches.parity = np.where(branches.ok, 0, -1)
        branches.parity[branches.ok] = ((k1s + k2 + flavor) % 2)[ok2]
    return branches, layout


def _teleported_gate_result(branches, layout, mode_x, mode_y, rng):
    chosen = _resolve(branches)
    trace = []
    _trace_step(trace, "fourier-x", "element", modes=layout.fourier_x)
    _trace_step(trace, "bm-x", "measure", p=chosen["p1"], outcome=list(chosen["pattern1"]))
    if "pattern2" in chosen:
        _trace_step(trace, "fourier-y", "element", modes=layout.fourier_y)
        _trace_step(trace, "bm-y", "measure", p=chosen["p2"], outcome=list(chosen["pattern2"]))
    details = {"n": layout.n, "layout": layout}
    if chosen["ok"]:
        details.update({key: chosen[key] for key in ("target_x", "target_y", "leftover_modes",
                                                      "k1", "k2", "parity") if key in chosen})
    else:
        details["branch"] = chosen
    return _result(chosen, branches, rng, details, trace, lambda b: {
        "projected_mode": mode_x if b["stage"] == 1 else mode_y,
        "value": b["projected"], "stage": b["stage"]})


def csign_teleported_modes(state: FockState, mode_x: int, mode_y: int, n: int,
                           rng=None, resource: PreparedResource | None = None) -> ProtocolResult:
    """Mode-level conditional sign by double teleportation, p = (n/(n+1))^2.

    The resource carries the gate pre-applied; on top of the pattern phases,
    each target needs a pi flip keyed to the *other* side's detected total. A
    first-step failure (probability 1/(n+1)) aborts before touching mode_y; a
    second-step failure leaves the teleported x restorable by a phase shift.
    """
    fock._check_modes(state.modes, [mode_x, mode_y])
    if state.max_occupation(mode_x) > 1 or state.max_occupation(mode_y) > 1:
        raise UnsupportedInputError("gate modes must carry at most one photon")
    res = resource or _standard_resource("tnprime", n, rng)
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


# -- parity-tagged state preparation ------------------------------------------


class _GateLedger:
    """Tracks nondeterministic gate usage inside a preparation circuit."""

    def __init__(self, strategy, n, rng):
        self.strategy, self.n, self.rng = strategy, n, rng
        self.count, self.probability, self.failure, self.trace = 0, 1.0, None, []

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
    """Rotation of the target qubit conditioned on the control being |0>_q: the
    half-angle splitter conjugated by two conditional signs (control's b-mode
    against the target's a-mode)."""
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
    """The parity-imprinting gate walk shared by tp_n and p'_n preparation: qubit
    i of the block sits on (a_modes[i], b_modes[i]), initialized with its
    two-term seed superposition; the conditional signs couple to anc1."""
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
    _check_size(n, "prepare_tp_n")
    a_modes, b_modes, anc1, anc2 = list(range(n)), list(range(n, 2 * n)), 2 * n, 2 * n + 1
    seed, theta_seed = _seed_block(n)
    state = tensor(seed, number_state((0, 1)))
    state = apply_unitary(state, element_matrix(BeamSplitter(0, 1, theta_seed)),
                          [a_modes[n - 1], b_modes[n - 1]])
    state = apply_unitary(state, _balanced(-1), [anc1, anc2])
    ledger = _GateLedger(strategy, teleport_n, rng)
    state = _tp_gate_sequence(state, a_modes, b_modes, anc1, ledger)
    if state is None:
        return ledger.failed()
    state = apply_unitary(state, _balanced(1), [anc1, anc2])
    state = fock.phase_on_mode(state, anc1, math.pi)
    _trace_step(ledger.trace, "unspread-ancilla", "element", modes=[anc1, anc2])
    return ProtocolResult(True, ledger.probability if rng is None else None, state, trace=ledger.trace,
                          details={"csign_count": ledger.count, "ancilla": (anc1, anc2),
                                   "qubit_modes": list(zip(a_modes, b_modes))})


def combine_tp_to_tprime(n: int, strategy: str = "ideal", rng=None,
                         copies: tuple | None = None) -> ProtocolResult:
    """Assemble the gate-modified resource from two parity-tagged copies.

    One conditional sign couples the two ancilla qubits, balanced
    splitters rotate them, and counting the four ancilla modes gives four
    equiprobable outcomes; pi shifts on the b-modes of the flagged halves
    turn every outcome into the target resource.
    """
    _check_size(n, "combine_tp_to_tprime")
    copies = copies or (make_resource("tpn", n).state,) * 2
    width = 2 * n + 2
    state = tensor(copies[0], copies[1])
    anc_a, anc_b = (2 * n, 2 * n + 1), (width + 2 * n, width + 2 * n + 1)
    ledger = _GateLedger(strategy, 1, rng)
    state = ledger.csign(state, anc_a[0], anc_b[0])
    if state is None:
        return ledger.failed()
    bal = _balanced(1)
    state = apply_unitary(state, bal, list(anc_a))
    state = apply_unitary(state, bal, list(anc_b))
    measured = sorted(anc_a + anc_b)
    b_modes_a = [_shift_index(n + i, measured) for i in range(n)]
    b_modes_b = [_shift_index(width + n + i, measured) for i in range(n)]

    def classify(counts, p, state):
        def branch(i, pattern):
            # a half whose ancilla pair reads (1, 0) is flagged: pi on its b-modes
            halves = ((pattern[:2], b_modes_a), (pattern[2:], b_modes_b))
            fixes = [("phase", m, math.pi) for half, b_modes in halves if half == (1, 0)
                     for m in b_modes]
            return {"pattern": pattern, "p": p[i], "ok": True, "corrections": fixes,
                    "state": state(i, fixes)}

        return [True] * len(p), branch

    branches = _detect(state, measured, classify, rng)
    chosen = _resolve(branches)
    _trace_step(ledger.trace, "bm-ancilla", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    return _result(chosen, branches, rng, {"csign_count": ledger.count, "pattern": chosen["pattern"]},
                   ledger.trace, p=ledger.probability)


def prepare_p_prime(n: int, strategy: str = "ideal", rng=None) -> ProtocolResult:
    """Prepare the parity-projecting resource with a single shared ancilla.

    Two parity-tagged blocks are walked against one ancilla qubit, which then
    carries the total parity; measuring it collapses the 4n modes to the even
    resource or the equally useful odd variant (details report which).
    """
    _check_size(n, "prepare_p_prime")
    a_x, b_x, a_y, b_y = (list(range(g * n, (g + 1) * n)) for g in range(4))
    anc1, anc2 = 4 * n, 4 * n + 1
    seed, theta_seed = _seed_block(n)
    state = tensor(tensor(seed, seed), number_state((0, 1)))
    bs_seed = element_matrix(BeamSplitter(0, 1, theta_seed))
    state = apply_unitary(state, bs_seed, [a_x[n - 1], b_x[n - 1]])
    state = apply_unitary(state, bs_seed, [a_y[n - 1], b_y[n - 1]])
    state = apply_unitary(state, _balanced(-1), [anc1, anc2])
    ledger = _GateLedger(strategy, 1, rng)
    state = _tp_gate_sequence(state, a_x, b_x, anc1, ledger)
    if state is not None:
        state = _tp_gate_sequence(state, a_y, b_y, anc1, ledger)
    if state is None:
        return ledger.failed()
    state = apply_unitary(state, _balanced(1), [anc1, anc2])
    state = fock.phase_on_mode(state, anc1, math.pi)
    _trace_step(ledger.trace, "unspread-ancilla", "element", modes=[anc1, anc2])
    # both parities are usable; the even one is the post-selected view
    def classify(counts, p, state):
        return [True] * len(p), lambda i, pattern: {
            "pattern": pattern, "p": p[i], "parity": 0 if pattern == (0, 1) else 1, "ok": True,
            "state": state(i)}

    branches = _detect(state, [anc1, anc2], classify, rng)
    chosen = _resolve(branches)
    _trace_step(ledger.trace, "bm-ancilla", "measure", p=chosen["p"], outcome=list(chosen["pattern"]))
    return _result(chosen, branches, rng, {"csign_count": ledger.count, "parity": chosen["parity"]},
                   ledger.trace, p=ledger.probability)


# -- nondestructive parity measurement and its applications -------------------


def parity_measure(state: FockState, mode_x: int, mode_y: int, n: int, rng=None,
                   resource: PreparedResource | None = None) -> ProtocolResult:
    """Parity of two ({0,1}-photon) modes without destroying their state.

    Gate teleportation against the parity-projecting resource: the summed
    detector totals reveal the parity, and the teleported modes keep the
    in-sector superposition after the pattern-phase corrections. Needs
    n >= 2 for odd sectors to pass (the even-only resource at n = 1 has
    no odd detection channel). Details report parity and target modes.
    """
    fock._check_modes(state.modes, [mode_x, mode_y])
    return _teleported_gate_result(*_parity_gadget(state, mode_x, mode_y, n, rng, resource),
                                   mode_x, mode_y, rng)


def _parity_gadget(state, mode_x, mode_y, n, rng, resource=None):
    """The parity gadget's branch tree and layout; a successful branch carries
    its ``parity``, the detected totals plus the resource's parity flavour."""
    res = resource or _standard_resource("pnprime", n, rng)
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
    fock._check_modes(state.modes, [mode_x, mode_y])
    total = _weight(state)
    sectors = {0: {}, 1: {}}
    for occ, amp in state.terms():
        sectors[(occ[mode_x] + occ[mode_y]) % 2][occ] = amp
    weighed = [(parity, amps, fock._squared_norm(amps.values())) for parity, amps in sectors.items()]
    possible = [sector for sector in weighed if sector[2] / total >= IMPOSSIBLE]
    if rng is not None:
        possible = [possible[_drawer([w / total for _, _, w in possible])(rng.random())]]
    return [{"parity": parity, "p": weight / total,
             "state": _projection(state.modes, amps, weight)}
            for parity, amps, weight in possible]


def _parity_check(state, mode_x, mode_y, n, ideal, rng):
    """The parity check that teleport_with_e and distribute_entanglement build on:
    (branches, final), the oracle projection when ``ideal``, else the gadget's
    branches, failures included (with an rng, the one drawn). A branch with
    ``ok`` carries ``parity``, ``target_x``/``target_y`` (where mode_x and
    mode_y now sit) and ``leftover_modes``; ``final`` maps any other mode."""
    if ideal:
        checked = [dict(b, ok=True, target_x=mode_x, target_y=mode_y, leftover_modes=[])
                   for b in parity_project_ideal(state, mode_x, mode_y, rng)]
        return _Branches([b["p"] for b in checked], [True] * len(checked),
                         lambda start, stop: checked[start:stop],
                         np.array([b["parity"] for b in checked])), lambda m: m
    branches, layout = _parity_gadget(state, mode_x, mode_y, n, rng)
    return branches, layout.final


def teleport_with_e(alpha0: complex, alpha1: complex, n: int = 2, rng=None,
                    ideal_parity: bool = False) -> ProtocolResult:
    """Full teleportation with the traditional entangled resource.

    The Bell measurement is the nondestructive parity measurement on the two
    inner modes, then balanced splitters and four counters that fix the
    sign; a pi phase and/or a mode swap on the output pair restores the
    input, so the whole succeeds exactly when the parity gadget does. The
    branch list holds the gadget's failures, then the sign-decode branches
    with their stages' ``p_parity`` and ``p_sign``. The trace has a
    ``parity`` step (outcome None when the gadget fails) and past it a
    ``sign`` step: the four-counter pattern as ``outcome``, and the ``sign``.
    """
    _check_size(n, "teleport_with_e")
    state = tensor(encode_qubit(alpha0, alpha1), make_resource("e").state)
    trace = []
    _trace_step(trace, "adjoin-e", "prep")
    checked, final = _parity_check(state, 1, 2, n, ideal_parity, rng)
    bal, outer2, outs = _balanced(1), final(3), (final(4), final(5))

    def decoded(pb):
        """A gadget success ``pb``'s sign decode, the records of its four counted
        modes, and the fields of ``pb`` its rows read."""
        tx, ty = pb["target_x"], pb["target_y"]
        four = sorted([0, tx, ty, outer2])
        work = apply_unitary(apply_unitary(pb["state"], bal, [0, tx]), bal, [ty, outer2])
        return _records(work, four, rng), (ty, pb["parity"], pb["p"], four)

    # end to end, the parity gadget can fail before the sign decode; a success's
    # dict is built for it alone and not kept
    seconds, facts = [], []
    for i in np.flatnonzero(checked.ok).tolist():
        records, fields = decoded(*checked._build(i, i + 1))
        seconds.append(records), facts.append(fields)

    def row(p, i, two):
        if two is None:
            return checked[i]
        at, j = two
        ty, parity, p_parity, four = facts[at]
        pattern = tuple(seconds[at].counts[j].tolist())
        oa, ob = (_shift_index(m, four) for m in outs)
        sign = "+" if (pattern[four.index(0)] == 1) == (pattern[four.index(ty)] == 1) else "-"
        fixes = [("swap", oa, ob)] * parity + [("phase", oa, math.pi)] * (sign == "+")
        return {"pattern": pattern, "p": p, "parity": parity, "sign": sign, "ok": True,
                "out_pair": (oa, ob), "corrections": fixes, "state": seconds[at].state(j, fixes),
                "p_parity": p_parity, "p_sign": seconds[at].p.item(j)}

    branches, _ = _splice(checked.p, checked.ok, checked.ok, seconds, row, kept_first=True, ok2=True)
    chosen = _resolve(branches)
    if chosen["ok"]:
        _trace_step(trace, "parity", "measure", p=chosen["p_parity"], outcome=chosen["parity"])
        _trace_step(trace, "sign", "measure", p=chosen["p_sign"], outcome=list(chosen["pattern"]),
                    sign=chosen["sign"])
    else:
        _trace_step(trace, "parity", "measure", p=chosen["p"], outcome=None)
    return _result(chosen, branches, rng, {"branch": chosen}, trace,
                   lambda b: {"stage": b["stage"], "projected": b["projected"]},
                   1.0 if ideal_parity else checked.mass())


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
    _check_size(n, "distribute_entanglement")
    if method not in ("ideal", "gadget"):
        raise ProtocolError(f"unknown method {method!r}")
    half_a = FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): -1 / math.sqrt(2)})
    half_b = FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): 1 / math.sqrt(2)})
    # photon A across (local 0, remote 2); photon B across (local 1, remote 3)
    state = fock.permute_modes(tensor(half_a, half_b), [0, 2, 1, 3])
    trace = []
    _trace_step(trace, "split-photons", "prep")
    checked, final = _parity_check(state, 0, 1, n, method == "ideal", rng)
    remote, even, sides, seconds = (final(2), final(3)), checked.parity == 0, [], []
    for i in np.flatnonzero(even).tolist():
        (b,) = checked._build(i, i + 1)  # not kept: its stage-1 state goes once measured
        sides.append(sorted((b["target_x"], b["target_y"])))
        seconds.append(_records(b["state"], sides[-1], rng))

    def row(p, i, two):
        if two is not None:
            at, j = two
            return {"pattern": tuple(seconds[at].counts[j].tolist()), "p": p, "parity": 0, "ok": False,
                    "accepted": False, "remote": tuple(_shift_index(m, sides[at]) for m in remote),
                    "state": seconds[at].state(j)}
        b = checked[i]
        if not b["ok"]:
            return {"parity": None, "p": p, "ok": False, "state": b["state"], "accepted": False,
                    "remote": None, "gadget_failure": {"stage": b["stage"], "projected": b["projected"]}}
        return {"parity": 1, "p": p, "ok": True, "state": b["state"], "accepted": True, "remote": remote,
                "local": (b["target_x"], b["target_y"]), "leftovers": b["leftover_modes"]}

    branches, first = _splice(checked.p, checked.ok, even, seconds, row, ok2=False)
    chosen = _resolve(branches)
    _trace_step(trace, "parity", "measure", p=chosen["p"], outcome=chosen["parity"])
    details = {"branch": chosen}
    if rng is None:  # over the branches past the gadget; only odd parity has ok
        details["acceptance_probability"] = branches.mass() / _added(branches.p[checked.ok[first]])
    return _result(chosen, branches, rng, details, trace,
                   lambda b: b.get("gadget_failure") or {"parity": 0},
                   details.get("acceptance_probability"))
