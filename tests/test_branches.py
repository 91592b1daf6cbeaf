"""The branch core: what every measurement and every gadget enumerates.

Detector models give branches whose probabilities sum to 1, bucket classes
that merge several count patterns included. Every gadget detects through
one stage, ``protocols._detect``, which lists branch dicts carrying
``pattern``, ``p``, ``ok`` and ``state``: every branch analytically, the
one drawn branch with an rng, so a sampled run draws stage by stage. A
branch's state is built the first time its terms are read, bit for bit
what an eager build gives. One resolver turns them into the result: the
first successful branch, which is the one drawn branch with an rng.
"""

import cmath
import collections
import gc
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockworks import costs, fock, measure, optics, protocols
from fockworks.fock import FockState, tensor
from fockworks.protocols import BosonicQubit, encode_qubit

Q1, Q2 = BosonicQubit(0, 1), BosonicQubit(2, 3)


@st.composite
def measured_states(draw, min_measured=1):
    """A state and at least ``min_measured`` modes to measure, with a
    bucket-class collision.

    Two terms differ only in a measured count of 1 against 2, so a bucket
    detector merges them into one class over the same surviving modes.
    """
    modes = draw(st.integers(min_measured, 4))
    occs = set(draw(st.lists(st.tuples(*[st.integers(0, 3)] * modes), max_size=6)))
    measured = draw(st.lists(st.integers(0, modes - 1), min_size=min_measured, unique=True))
    base = list(draw(st.tuples(*[st.integers(0, 3)] * modes)))
    for count in (1, 2):
        base[measured[0]] = count
        occs.add(tuple(base))
    magnitude = st.floats(0.05, 1.0)
    phase = st.floats(0.0, 2 * math.pi)
    amps = {occ: draw(magnitude) * cmath.exp(1j * draw(phase)) for occ in sorted(occs)}
    return FockState(modes, amps), measured


@settings(max_examples=60, deadline=None)
@given(measured_states(), st.sampled_from([measure.Counter(), measure.Bucket(),
                                           measure.FanoutCounter(2), measure.FanoutCounter(3)]))
def test_detector_branch_probabilities_sum_to_one(data, model):
    state, modes = data
    branches = measure.measure_modes(state, modes, model)
    assert all(br.probability > 0 for br in branches)
    assert abs(sum(br.probability for br in branches) - 1) < 1e-12


@settings(max_examples=40, deadline=None)
@given(measured_states(min_measured=2), st.integers(2, 3))
def test_fanout_classes_sum_the_counter_patterns_of_the_fanned_state(data, n):
    # the oracle fans every measured mode out by hand, counts every detector
    # and sums the probabilities of the patterns of each click class
    state, modes = data
    fanned, runs = fock.tensor(state, fock.vacuum(len(modes) * (n - 1))), []
    for i, mode in enumerate(modes):
        runs.append([mode] + [state.modes + i * (n - 1) + j for j in range(n - 1)])
        fanned = optics.apply_unitary(fanned, optics.fourier_matrix(n - 1), runs[-1])
    detectors = [d for run in runs for d in run]
    want = collections.Counter()
    for br in measure.measure_modes(fanned, detectors, measure.Counter()):
        counts = dict(br.outcome)
        want[tuple(sum(counts[d] > 0 for d in run) for run in runs)] += br.probability
    got = {tuple(c for _, c in br.outcome): br.probability
           for br in measure.measure_modes(state, modes, measure.FanoutCounter(n))}
    assert got.keys() == {clicks for clicks, p in want.items() if p >= measure.IMPOSSIBLE}
    assert all(abs(p - want[clicks]) < 1e-12 for clicks, p in got.items())


@settings(max_examples=40, deadline=None)
@given(measured_states())
def test_one_detector_fanout_is_the_bucket_detector(data):
    state, modes = data
    bucket = measure.measure_modes(state, modes, measure.Bucket())
    fanout = measure.measure_modes(state, modes, measure.FanoutCounter(1))
    assert [(br.outcome, br.probability.hex(), list(br.post_state.terms())) for br in bucket] == \
        [(br.outcome, br.probability.hex(), list(br.post_state.terms())) for br in fanout]


GADGETS = {
    "apply_ns1": lambda a, b, n: protocols.apply_ns1(
        FockState(1, {(0,): a[0], (1,): a[1], (2,): b[1]}).normalized(), 0),
    "teleport_bm1": lambda a, b, n: protocols.teleport_bm1(costs.encode_single_rail(*a), 0),
    "teleport_tn": lambda a, b, n: protocols.teleport_tn(costs.encode_single_rail(*a), 0, n),
    "csign_teleported": lambda a, b, n: protocols.csign_teleported(
        tensor(encode_qubit(*a), encode_qubit(*b)), Q1, Q2, n),
    "parity_measure": lambda a, b, n: protocols.parity_measure(
        tensor(costs.encode_single_rail(*a), costs.encode_single_rail(*b)), 0, 1, 2),
    "combine_tp_to_tprime": lambda a, b, n: protocols.combine_tp_to_tprime(n),
    "prepare_p_prime": lambda a, b, n: protocols.prepare_p_prime(n),
    "teleport_with_e": lambda a, b, n: protocols.teleport_with_e(*a, n=2),
    "teleport_with_e_ideal": lambda a, b, n: protocols.teleport_with_e(*a, ideal_parity=True),
    "distribute_entanglement_ideal": lambda a, b, n: protocols.distribute_entanglement(
        method="ideal"),
    "distribute_entanglement": lambda a, b, n: protocols.distribute_entanglement(n + 1),
    "csign_via_ns": lambda a, b, n: protocols.csign_via_ns(
        tensor(encode_qubit(*a), encode_qubit(*b)), Q1, Q2),
    "apply_csign_modes_ns": lambda a, b, n: protocols.apply_csign_modes(
        tensor(encode_qubit(*a), encode_qubit(*b)), 0, 2, strategy="ns"),
    "prepare_b4_prime": lambda a, b, n: protocols.prepare_b4_prime(),
}

qubits = st.builds(lambda t, f: (math.cos(t), cmath.exp(1j * f) * math.sin(t)),
                   st.floats(0.0, math.pi / 2), st.floats(0.0, 2 * math.pi))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(GADGETS)), qubits, qubits, st.integers(1, 2))
def test_analytic_gadget_branches_sum_to_one(name, a, b, n):
    res = GADGETS[name](a, b, n)
    branches = res.details["branches"]
    assert all({"p", "ok", "state"} <= set(br) for br in branches)
    assert abs(sum(br["p"] for br in branches) - 1) < 1e-10
    if name != "distribute_entanglement":  # reports the acceptance past the gadget instead
        assert abs(sum(br["p"] for br in branches if br["ok"]) - res.success_probability) < 1e-10
    chosen = next((br for br in branches if br["ok"]), None)
    if chosen is not None:
        assert res.succeeded and res.output_state is chosen["state"]


def _bits(state):
    """Every amplitude of ``state`` by ``float.hex``, in its dict order."""
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state._amp.items()]


def _states_reachable_from(obj):
    """Every FockState that ``obj``'s references reach, ``obj`` itself left out."""
    seen, todo, found = {id(obj)}, [obj], []
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if isinstance(ref, type) or id(ref) in seen:
                continue
            seen.add(id(ref))
            if isinstance(ref, FockState):
                found.append(ref)
            todo.append(ref)
    return found


class TestDeferredBranchStates:
    """Exact branch states are built on first read, as an eager build builds them."""

    @pytest.mark.parametrize("name", sorted(GADGETS))
    def test_first_read_equals_the_eager_build(self, name):
        res = GADGETS[name]((0.6, 0.8j), (0.28j, 0.96), 2)
        states = [br["state"] for br in res.details["branches"]]
        assert all(isinstance(state, FockState) for state in states)
        assert not hasattr(res.output_state, "_block")  # the landed branch is built
        pending = [state for state in states if hasattr(state, "_block")]
        assert pending
        # the second stage of a teleported gate, evaluated in one pass, is checked too
        stage2 = [br["state"] for br in res.details["branches"] if "pattern2" in br]
        assert all(state in pending for state in stage2 if state is not res.output_state)
        for state in pending:
            assert _states_reachable_from(state) == []
            group = state._block(state._row)
            weight = fock._squared_norm(group.values())
            eager = measure._corrected(
                measure._projection(state.modes, group, weight), state._corrections)
            assert _bits(state) == _bits(eager)
            assert _bits(state) == _bits(eager)  # a second read gives the same
            assert not hasattr(state, "_block") and _states_reachable_from(state) == []
        for state in states:
            back = fock.load_state(fock.dump_state(state))
            assert back.modes == state.modes
            assert [(o, a.real.hex(), a.imag.hex()) for o, a in back.terms()] == \
                [(o, a.real.hex(), a.imag.hex()) for o, a in state.terms()]

    def test_exact_teleport_corrects_only_the_landed_branch(self, monkeypatch):
        calls = []
        phase_on_mode = fock.phase_on_mode
        monkeypatch.setattr(fock, "phase_on_mode", lambda *a: calls.append(1) or phase_on_mode(*a))
        res = protocols.teleport_tn(costs.encode_single_rail(0.6, 0.8), 0, 6)
        assert len(calls) == 1 and res.succeeded


#: the key order of every kind of branch dict an exact run lists
_KEY_ORDERS = {
    ("pattern", "p", "k", "ok", "projected", "state"),
    ("pattern", "p", "k", "ok", "target_mode", "corrections", "state"),
    ("ok", "stage", "pattern1", "k1", "p", "p1", "state", "projected"),
    ("p", "pattern1", "k1", "pattern2", "k2", "p1", "ok", "stage", "projected", "target_x",
     "corrections", "state", "p2"),
    ("p", "pattern1", "k1", "pattern2", "k2", "p1", "ok", "target_x", "target_y",
     "leftover_modes", "corrections", "state", "p2"),
    ("p", "pattern1", "k1", "pattern2", "k2", "p1", "ok", "target_x", "target_y",
     "leftover_modes", "parity", "corrections", "state", "p2"),
    ("pattern", "p", "parity", "sign", "ok", "out_pair", "corrections", "state", "p_parity",
     "p_sign"),
    ("pattern", "p", "ok", "state", "stage", "heralds"),
    ("parity", "p", "ok", "state", "accepted", "remote", "gadget_failure"),
    ("parity", "p", "ok", "state", "accepted", "remote", "local", "leftovers"),
    ("pattern", "p", "parity", "ok", "accepted", "remote", "state"),
}

SEQUENCES = {
    **{f"teleport_tn_n{n}": (lambda a, b, n=n: protocols.teleport_tn(
        costs.encode_single_rail(*a), 0, n)) for n in range(1, 5)},
    **{f"csign_teleported_n{n}": (lambda a, b, n=n: protocols.csign_teleported(
        tensor(encode_qubit(*a), encode_qubit(*b)), Q1, Q2, n)) for n in (1, 2)},
    "parity_measure": lambda a, b: GADGETS["parity_measure"](a, b, 2),
    "teleport_with_e": lambda a, b: protocols.teleport_with_e(*a, n=2),
    "teleport_with_e_ideal": lambda a, b: protocols.teleport_with_e(*a, ideal_parity=True),
    "csign_via_ns": lambda a, b: protocols.csign_via_ns(
        tensor(encode_qubit(*a), encode_qubit(*b)), Q1, Q2),
    **{f"distribute_entanglement_n{n}": (lambda a, b, n=n: protocols.distribute_entanglement(n))
       for n in (2, 3)},
    "distribute_entanglement_ideal": lambda a, b: protocols.distribute_entanglement(method="ideal"),
}


def _builtin(value):
    """Whether ``value`` is built of Python scalars, tuples, lists and dicts (no numpy scalar)."""
    if type(value) is dict:
        return all(map(_builtin, value.values()))
    if type(value) in (tuple, list):
        return all(map(_builtin, value))
    return value is None or type(value) in (bool, int, float, str)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SEQUENCES)), qubits, qubits, st.data())
def test_branch_columns_act_as_the_eager_list(name, a, b, data):
    branches = SEQUENCES[name](a, b).details["branches"]
    size = len(branches)
    # reads in a drawn order, negative indices included, before any iteration
    reads = data.draw(st.lists(st.integers(-size, size - 1), max_size=6))
    seen = {}
    for i in reads:
        branch = branches[i]
        assert seen.setdefault(i % size, branch) is branch
        assert branches[i % size] is branch and branches[i % size - size] is branch
    for i in (size, -size - 1):
        with pytest.raises(IndexError):
            branches[i]
    with pytest.raises(TypeError):
        branches[0] = {}
    if reads:
        branches[reads[0]]["edited"] = True
    listed = list(branches)
    assert len(listed) == size and list(branches) == listed
    assert all(x is y for x, y in zip(listed, branches)) and listed[::-1] == branches[::-1]
    assert all(listed[i] is branch for i, branch in seen.items())
    assert not reads or branches[reads[0]].pop("edited")
    # the columns, float64 and bool arrays, are the dicts' p and ok, the sums those of the dicts
    assert branches.p.dtype == float and branches.ok.dtype == bool
    assert branches.p.tolist() == [b["p"] for b in listed]
    assert branches.ok.tolist() == [b["ok"] for b in listed]
    assert branches.mass() == _left_to_right(b["p"] for b in listed if b["ok"])
    for branch in listed:
        assert tuple(branch) in _KEY_ORDERS
        assert all(_builtin(value) for key, value in branch.items() if key != "state")
        assert isinstance(branch["state"], FockState)
    # mutable values are fresh per dict
    lists = [value for branch in listed for value in branch.values() if type(value) is list]
    assert len({id(value) for value in lists}) == len(lists)


#: the composites of two stages, exact: each lists one branch per row of
#: either stage, and the landed one is the only row whose dict is built
COMPOSITES = {
    "csign_via_ns": lambda: protocols.csign_via_ns(_plus_plus(), Q1, Q2),
    "teleport_with_e": lambda: protocols.teleport_with_e(0.6, 0.8j, n=3),
    "distribute_entanglement": lambda: protocols.distribute_entanglement(3),
}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_an_exact_composite_builds_the_landed_dict_alone(name):
    res = COMPOSITES[name]()
    branches = res.details["branches"]
    built = [i for i, branch in enumerate(branches._dicts) if branch is not None]
    assert len(branches) > 1 and len(built) == 1
    landed = branches[built[0]]
    assert landed is protocols._resolve(branches) and landed["state"] is res.output_state


@pytest.mark.parametrize("method", ["gadget", "ideal"])
def test_distribute_entanglement_builds_the_even_gadget_rows_and_the_landed_one(monkeypatch, method):
    # the parity column picks the even rows for the local readout: their gadget
    # dicts are built once, unkept, and of the others only the landed row's
    splices, splice = [], protocols._splice

    def counted(*args, **kwargs):
        branches, first = splice(*args, **kwargs)
        build, rows = branches._build, []
        branches._build = lambda start, stop: rows.extend(range(start, stop)) or build(start, stop)
        splices.append((branches, first, rows))
        return branches, first

    monkeypatch.setattr(protocols, "_splice", counted)
    checked = []
    parity_check = protocols._parity_check
    monkeypatch.setattr(protocols, "_parity_check",
                        lambda *args: checked.append(parity_check(*args)) or checked[-1])
    res = protocols.distribute_entanglement(3, method=method)
    gadget = checked[0][0]
    built = splices[0][2] if method == "gadget" else []
    branches, first, _ = splices[-1]
    landed = [i for i, branch in enumerate(branches._dicts) if branch is not None]
    assert branches[landed[0]] is protocols._resolve(branches) and landed == [int(branches.ok.argmax())]
    even = np.flatnonzero(gadget.parity == 0).tolist()
    assert even and len(gadget) > len(even)
    if method == "gadget":
        assert len(even) > 1 and built == even + [int(first[landed[0]])]
        assert [i for i, branch in enumerate(gadget._dicts) if branch is not None] == built[-1:]
    assert gadget.parity.tolist() == [-1 if b.get("parity") is None else b["parity"] for b in gadget]
    assert res.succeeded


def _left_to_right(values):
    """``values`` added left to right from 0.0: the last running sum."""
    return list(itertools.accumulate(values, initial=0.0))[-1]


class TestMass:
    """Branch masses add left to right on every interpreter; CPython 3.12's
    ``sum`` compensates the rounding of floats."""

    def test_mass_adds_left_to_right(self):
        p = [0.1] * 10 + [1e-17] * 5
        left = _left_to_right(p)
        assert left.hex() == "0x1.fffffffffffffp-1" and math.fsum(p) == 1.0  # the two sums differ
        branches = protocols._Branches(p + [0.5, 0.25], [True] * 15 + [False] * 2, None)
        assert branches.mass().hex() == left.hex()
        assert branches.mass(False) == 0.75
        assert protocols._added(p).hex() == left.hex()

    def test_an_empty_or_signed_zero_mass_is_zero(self):
        for p in ([], [-0.0], [-0.0, -0.0]):
            assert protocols._Branches(p, [True] * len(p), None).mass().hex() == "0x0.0p+0"


def _listed(dicts):
    """The ``_Branches`` of the built ``dicts``, read from the list."""
    return protocols._Branches([b["p"] for b in dicts], [b["ok"] for b in dicts],
                               lambda start, stop: dicts[start:stop])


class TestResolver:
    def test_analytic_takes_the_first_successful_branch(self):
        branches = [{"p": 0.5, "ok": False}, {"p": 0.2, "ok": True}, {"p": 0.3, "ok": True}]
        assert protocols._resolve(_listed(branches)) is branches[1]

    def test_analytic_without_success_takes_the_likeliest_branch(self):
        branches = [{"p": 0.2, "ok": False}, {"p": 0.7, "ok": False}, {"p": 0.1, "ok": False}]
        assert protocols._resolve(_listed(branches)) is branches[1]

    def test_sampled_takes_the_one_drawn_branch_without_a_draw(self):
        branches = [{"p": 0.25, "ok": False}]
        assert protocols._resolve(_listed(branches)) is branches[0]
        # a sampled sign flip draws its one detection and nothing more
        rng, drawn = np.random.default_rng(3), np.random.default_rng(3)
        protocols.apply_ns1(FockState(1, {(0,): 0.6, (1,): 0.8}), 0, rng=rng)
        drawn.random()
        assert rng.bit_generator.state == drawn.bit_generator.state


def _keep(counts, p, state):
    """A stage's classifier: ``ok`` where the first mode counts no photon."""
    ok = (counts[:, 0] == 0).tolist()
    return ok, lambda i, pattern: {"pattern": pattern, "p": p[i], "ok": ok[i], "state": state(i)}


class TestDetect:
    # the same detection with and without a splitter in front: without
    # one, a draw over the grouped records; with one, boson sampling
    STATE = FockState(3, {(1, 0, 0): 0.6, (0, 1, 1): 0.8j})
    MIX = optics.element_matrix(optics.BeamSplitter(0, 1, 0.4))

    @pytest.mark.parametrize("unitary", [None, MIX], ids=["grouped", "boson-sampled"])
    def test_sampled_draws_over_p(self, unitary):
        exact = {b["pattern"]: b for b in protocols._detect(self.STATE, [0, 1], _keep, None, unitary)}
        assert abs(sum(b["p"] for b in exact.values()) - 1) < 1e-12
        draws, rng = 4000, np.random.default_rng(3)
        seen = collections.Counter()
        for _ in range(draws):
            (branch,) = protocols._detect(self.STATE, [0, 1], _keep, rng, unitary)
            want = exact[branch["pattern"]]
            assert branch["ok"] == want["ok"] and abs(branch["p"] - want["p"]) < 1e-12
            assert fock.states_close(branch["state"], want["state"], 1e-10)
            seen[branch["pattern"]] += 1
        for pattern, b in exact.items():
            p = b["p"]
            assert abs(seen[pattern] - draws * p) <= 4.5 * math.sqrt(draws * p * (1 - p)), pattern

    def test_exact_stage_lists_every_pattern_in_canonical_order(self):
        branches = protocols._detect(self.STATE, [0, 1], _keep, None, self.MIX)
        patterns = [b["pattern"] for b in branches]
        assert patterns == [(0, 1), (1, 0)]


def _plus_plus():
    plus = encode_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
    return tensor(plus, plus)


class TestTeleportedGateTrace:
    def test_analytic_trace_follows_the_success_branch(self):
        res = protocols.csign_teleported(_plus_plus(), Q1, Q2, 2)
        steps = [s["step"] for s in res.trace]
        assert steps == ["fourier-x", "bm-x", "fourier-y", "bm-y"]
        chosen = next(b for b in res.details["branches"] if b["ok"])
        assert res.trace[1]["outcome"] == list(chosen["pattern1"])
        assert res.trace[-1]["outcome"] == list(chosen["pattern2"])
        assert res.trace[-1]["cum_p"] == chosen["p"]

    def test_stage_one_failure_stops_after_the_first_detection(self):
        for seed in range(40):
            res = protocols.csign_teleported(_plus_plus(), Q1, Q2, 1,
                                             rng=np.random.default_rng(seed))
            if res.failure_info and res.failure_info["stage"] == 1:
                assert [s["step"] for s in res.trace] == ["fourier-x", "bm-x"]
                assert res.trace[-1]["outcome"] == list(res.details["branch"]["pattern1"])
                return
        pytest.fail("no stage-1 failure in 40 seeds")

    def test_parity_measure_writes_the_same_steps(self):
        res = protocols.parity_measure(fock.number_state((0, 1)), 0, 1, 2)
        assert [s["kind"] for s in res.trace] == ["element", "measure", "element", "measure"]


def test_teleport_with_e_reports_the_corrections_of_a_gadget_failure():
    seen = 0
    for seed in range(60):
        res = protocols.teleport_with_e(0.6, 0.8, n=2, rng=np.random.default_rng(seed))
        if not res.succeeded:
            branch = res.details["branch"]
            assert res.corrections == branch.get("corrections", [])
            seen += branch["stage"] == 2
    assert seen


def _single_rail_pair():
    return tensor(costs.encode_single_rail(0.6, 0.8j), costs.encode_single_rail(0.28j, 0.96))


def _e_input():
    return tensor(encode_qubit(0.6, 0.8j), protocols.make_resource("e").state)


#: every gadget entry point, run with an rng or without, and the success
#: probability its exact run reports: the ok mass of its branch list unless
#: the gadget reports another probability
ENTRY_POINTS = {
    "apply_ns1": (lambda rng: protocols.apply_ns1(FockState(1, {(0,): 0.6, (1,): 0.48j, (2,): 0.64}),
                                                  0, rng=rng), None),
    "csign_via_ns": (lambda rng: protocols.csign_via_ns(_plus_plus(), Q1, Q2, rng=rng), None),
    "teleport_bm1": (lambda rng: protocols.teleport_bm1(costs.encode_single_rail(0.6, 0.8j), 0,
                                                        rng=rng), None),
    "teleport_tn": (lambda rng: protocols.teleport_tn(costs.encode_single_rail(0.6, 0.8j), 0, 3,
                                                      rng=rng), None),
    "csign_teleported": (lambda rng: protocols.csign_teleported(_plus_plus(), Q1, Q2, 2, rng=rng),
                         None),
    "parity_measure": (lambda rng: protocols.parity_measure(_single_rail_pair(), 0, 1, 2, rng=rng),
                       None),
    # the probability of the NS gates the preparation passed, each 1/16
    "combine_tp_to_tprime": (lambda rng: protocols.combine_tp_to_tprime(1, "ns", rng=rng),
                             lambda res: 16.0 ** -res.details["csign_count"]),
    "prepare_p_prime": (lambda rng: protocols.prepare_p_prime(1, "ns", rng=rng),
                        lambda res: 16.0 ** -res.details["csign_count"]),
    # the parity gadget's success probability
    "teleport_with_e": (lambda rng: protocols.teleport_with_e(0.6, 0.8j, n=2, rng=rng),
                        lambda res: protocols.parity_measure(_e_input(), 1, 2, 2).success_probability),
    "distribute_entanglement": (lambda rng: protocols.distribute_entanglement(2, rng=rng),
                                lambda res: res.details["acceptance_probability"]),
}


class TestResultAssembly:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_exact_result_lists_its_branches(self, name):
        run, reported = ENTRY_POINTS[name]
        res = run(None)
        branches = res.details["branches"]
        assert isinstance(branches, protocols._Branches)
        if reported is None:
            assert res.success_probability == branches.mass()
        else:
            assert res.success_probability == pytest.approx(reported(res), abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_sampled_result_reports_no_probability_and_no_list(self, name, seed):
        res = ENTRY_POINTS[name][0](np.random.default_rng(seed))
        assert res.success_probability is None
        assert "branches" not in res.details
        if name in ("teleport_with_e", "distribute_entanglement"):
            assert res.details["branch"]["ok"] == res.succeeded


def _objects_reachable_from(obj):
    """How many objects ``obj`` reaches, itself included, past no type, module or function."""
    seen, todo = {id(obj)}, [obj]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if isinstance(ref, (type, types.ModuleType, types.FunctionType)) or id(ref) in seen:
                continue
            seen.add(id(ref))
            todo.append(ref)
    return len(seen)


@pytest.mark.parametrize("gate, branches, objects", [
    (lambda: protocols.teleport_tn(costs.encode_single_rail(0.6, 0.8j), 0, 4), 152, 1372),
    (lambda: protocols.csign_teleported(tensor(encode_qubit(0.6, 0.8j), encode_qubit(0.28j, 0.96)),
                                        Q1, Q2, 2), 131, 1370),
], ids=["teleport_tn-4", "csign_teleported-2"])
def test_a_fully_read_branch_list_holds_a_pinned_number_of_objects(gate, branches, objects):
    # a read branch holds its dict, its own values and its lazy state (block,
    # row and corrections); the weight is taken when the state is read, and
    # equal correction tuples are shared
    listed = gate().details["branches"]
    assert len(list(listed)) == branches
    assert _objects_reachable_from(listed) == objects


def test_teleport_with_e_keeps_no_gadget_success_dict(monkeypatch):
    # the sign decode builds each gadget success's dict once, for itself, and
    # keeps only the fields its rows read
    checked = []
    parity_check = protocols._parity_check
    monkeypatch.setattr(protocols, "_parity_check",
                        lambda *args: checked.append(parity_check(*args)) or checked[-1])
    res = protocols.teleport_with_e(0.6, 0.8j, n=3)
    assert sum(branch["p"] for branch in res.details["branches"]) == pytest.approx(1)
    gadget = checked[0][0]
    assert gadget.ok.any() and not gadget.ok.all()
    assert [i for i, branch in enumerate(gadget._dicts) if branch is not None] == \
        np.flatnonzero(~gadget.ok).tolist()
