"""Where states are validated, and what the unvalidated path must still do.

Public inputs (``FockState(...)``, ``scaled``, ``number_state``,
``state_from_json``) check every occupation and amplitude. States built
inside the package from already-valid keys go through
``FockState._trusted``, which must give bit-identical results (dict order
and signed zeros included) and still reject non-finite amplitudes. The
references below are the public-constructor formulas the trusted call
sites replaced; results are compared bit for bit.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockworks import costs, fock, measure, optics, protocols
from fockworks.fock import DEFAULT_TOL, FockState, InvalidOccupationError
from fockworks.protocols import BosonicQubit

PROPERTY = settings(max_examples=60, deadline=None)

_parts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, -5e-324])
amplitudes = st.builds(complex, _parts, _parts)


@st.composite
def amp_dicts(draw, min_terms=0):
    modes = draw(st.integers(1, 4))
    occs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * modes),
                         min_size=min_terms, max_size=8, unique=True))
    return modes, {occ: draw(amplitudes) for occ in occs}


@st.composite
def states(draw):
    """Valid states; unpruned ones too, so that tiny terms reach the operations."""
    modes, amps = draw(amp_dicts(min_terms=1))
    return FockState(modes, amps, tol=draw(st.sampled_from([0.0, DEFAULT_TOL])))


def _bits(state):
    return state.modes, [(occ, a.real.hex(), a.imag.hex()) for occ, a in state._amp.items()]


def _result(fn, *args):
    """Bits of what ``fn`` returns, or the type of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # compared against the reference's exception
        return type(exc)
    if isinstance(out, FockState):
        return _bits(out)
    return [(o, p.hex(), None if s is None else _bits(s)) for o, p, s in out]


# -- references: the public-constructor formulas ------------------------------------


def ref_tensor(a, b):
    amp = {oa + ob: x * y for oa, x in a._amp.items() for ob, y in b._amp.items()}
    return FockState(a.modes + b.modes, amp, tol=0.0)


def ref_phase_on_mode(state, mode, angle):
    rot = cmath.exp(1j * angle)
    return FockState(state.modes, {o: a * rot ** o[mode] for o, a in state._amp.items()}, tol=0.0)


def ref_permute_modes(state, perm):
    return FockState(state.modes, {tuple(o[p] for p in perm): a for o, a in state._amp.items()},
                     tol=0.0)


def ref_add(a, b):
    amp = dict(a._amp)
    for occ, x in b._amp.items():
        amp[occ] = amp.get(occ, 0j) + x
    return FockState(a.modes, amp, tol=0.0)


def ref_normalized(state):
    n = state.norm()
    if n == 0:
        raise fock.ZeroStateError("cannot normalize a zero state")
    return state.scaled(1.0 / n)


def ref_measure_modes(state, modes, bucket):
    pos = set(modes)
    total = state.norm() ** 2
    if total == 0:
        raise fock.ZeroStateError("cannot measure a zero state")
    groups, mass = {}, {}
    for occ, amp in state.terms():
        counts = tuple(occ[m] for m in modes)
        if bucket:
            counts = tuple(min(c, 1) for c in counts)
        groups.setdefault(counts, {})
        mass[counts] = mass.get(counts, 0.0) + abs(amp) ** 2
        rest = tuple(k for i, k in enumerate(occ) if i not in pos)
        groups[counts][rest] = groups[counts].get(rest, 0j) + amp
    out = []
    for counts in sorted(groups):
        # the class probability is the incoherent sum; the post-state the coherent merge
        weight = sum(abs(a) ** 2 for a in groups[counts].values())
        p = (mass[counts] if bucket else weight) / total
        if p < 1e-24:
            continue
        if weight == 0:
            raise fock.ZeroStateError("bucket class cancels coherently")
        post = FockState(state.modes - len(modes), groups[counts]).scaled(1 / math.sqrt(weight))
        out.append((tuple(zip(modes, counts)), p, post))
    return out


def ref_postselect(state, modes, counts):
    pos = set(modes)
    total = state.norm() ** 2
    if total == 0:
        raise fock.ZeroStateError("cannot measure a zero state")
    kept = {}
    for occ, amp in state.terms():
        if tuple(occ[m] for m in modes) == counts:
            rest = tuple(k for i, k in enumerate(occ) if i not in pos)
            kept[rest] = kept.get(rest, 0j) + amp
    outcome = tuple(zip(modes, counts))
    weight = sum(abs(a) ** 2 for a in kept.values())
    if weight / total < 1e-24:
        return [(outcome, 0.0, None)]
    post = FockState(state.modes - len(modes), kept).scaled(1 / math.sqrt(weight))
    return [(outcome, weight / total, post)]


def _postselected(state, modes, counts):
    br = measure.postselect(state, modes, counts)
    return [(br.outcome, br.probability, br.post_state)]


def _measured(state, modes, bucket):
    model = measure.Bucket() if bucket else measure.Counter()
    return [(br.outcome, br.probability, br.post_state)
            for br in measure.measure_modes(state, modes, model)]


# -- the trusted constructor ----------------------------------------------------------


class TestTrustedConstructor:
    @PROPERTY
    @given(amp_dicts(), st.sampled_from([0.0, DEFAULT_TOL, 0.3]))
    def test_same_items_in_the_same_order(self, data, tol):
        modes, amps = data
        assert _bits(FockState._trusted(modes, amps, tol)) == _bits(FockState(modes, amps, tol))

    def test_signed_zeros_are_cleared_as_in_the_public_constructor(self):
        amps = {(0,): complex(1.0, -0.0), (1,): complex(-0.0, 0.5)}
        assert _bits(FockState._trusted(1, amps)) == _bits(FockState(1, amps))
        assert _bits(FockState._trusted(1, amps))[1][0][2] == "0x0.0p+0"

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, -math.inf)])
    def test_non_finite_amplitude_rejected(self, bad):
        amps = {(0, 1): 0.6 + 0j, (1, 0): bad}
        with pytest.raises(InvalidOccupationError, match=r"non-finite amplitude for \(1, 0\)"):
            FockState._trusted(2, amps)


class TestTrustedCallSites:
    @PROPERTY
    @given(states(), states())
    def test_tensor(self, a, b):
        assert _result(fock.tensor, a, b) == _result(ref_tensor, a, b)

    @PROPERTY
    @given(states(), st.data())
    def test_phase_on_mode(self, state, data):
        mode = data.draw(st.integers(0, state.modes - 1))
        angle = data.draw(st.floats(-10.0, 10.0) | st.sampled_from([math.pi, 0.0, -0.0]))
        assert _result(fock.phase_on_mode, state, mode, angle) == \
            _result(ref_phase_on_mode, state, mode, angle)

    @PROPERTY
    @given(states(), st.data())
    def test_permute_modes(self, state, data):
        perm = data.draw(st.permutations(range(state.modes)))
        assert _result(fock.permute_modes, state, perm) == _result(ref_permute_modes, state, perm)

    @PROPERTY
    @given(amp_dicts(min_terms=1), st.data())
    def test_add(self, data_a, data):
        modes, amps = data_a
        a = FockState(modes, amps)
        b = FockState(modes, {o: data.draw(amplitudes) for o in
                              data.draw(st.lists(st.sampled_from(sorted(amps)), unique=True))})
        assert _result(a.__add__, b) == _result(ref_add, a, b)

    @PROPERTY
    @given(states())
    def test_normalized(self, state):
        assert _result(FockState.normalized, state) == _result(ref_normalized, state)

    @PROPERTY
    @given(states(), st.data(), st.booleans())
    def test_measure_modes(self, state, data, bucket):
        modes = data.draw(st.lists(st.integers(0, state.modes - 1), min_size=1, unique=True))
        assert _result(_measured, state, modes, bucket) == \
            _result(ref_measure_modes, state, modes, bucket)

    @PROPERTY
    @given(states(), st.data())
    def test_postselect(self, state, data):
        modes = data.draw(st.lists(st.integers(0, state.modes - 1), min_size=1, unique=True))
        counts = data.draw(st.tuples(*[st.integers(0, 3)] * len(modes)))
        assert _result(_postselected, state, modes, counts) == \
            _result(ref_postselect, state, modes, counts)


class TestNonFiniteStillRejected:
    def test_scaled_by_inf(self):
        with pytest.raises(InvalidOccupationError):
            fock.number_state((1, 0)).scaled(float("inf"))

    def test_phase_by_inf(self):
        state = FockState(2, {(0, 1): 0.6, (1, 0): 0.8})
        with pytest.raises(InvalidOccupationError):
            fock.phase_on_mode(state, 0, float("inf"))

    def test_normalized_with_overflowing_inverse_norm(self, monkeypatch):
        state = FockState(2, {(0, 1): 0.6, (1, 0): 0.8})
        monkeypatch.setattr(FockState, "norm", lambda self: 1e-320)
        assert math.isinf(1.0 / state.norm())
        with pytest.raises(InvalidOccupationError):
            state.normalized()


class TestPublicValidation:
    @pytest.mark.parametrize("modes, amps, message", [
        (1, {(0, 1): 1.0}, "occupation (0, 1) has length 2, expected 1"),
        (2, {(1, -1): 1.0}, "negative count in occupation (1, -1)"),
        (2, {(1.7, 0): 1.0}, "non-integral count in occupation (1.7, 0)"),
        (2, {(0, 1): 1j, (1, 0.5): 1j}, "non-integral count in occupation (1, 0.5)"),
        (2, {(1.0, 0.0): float("nan")}, "non-finite amplitude for (1, 0)"),
        (1, {(0,): complex(1, float("inf"))}, "non-finite amplitude for (0,)"),
        (-1, {}, "mode count must be >= 0, got -1"),
        (2, {(0, 1): 1j, (1, -1): 1j}, "negative count in occupation (1, -1)"),
        (1, {(0,): 1j, (0, 1): 1j}, "occupation (0, 1) has length 2, expected 1"),
    ])
    def test_constructor_errors_and_messages(self, modes, amps, message):
        with pytest.raises(InvalidOccupationError) as info:
            FockState(modes, amps)
        assert str(info.value) == message

    @PROPERTY
    @given(amp_dicts(), st.sampled_from([0.0, DEFAULT_TOL]))
    def test_bulk_checked_input_matches_the_per_key_loop(self, data, tol):
        # int keys with complex amplitudes are checked in bulk; numpy
        # amplitudes send the same input through the per-key loop
        modes, amps = data
        looped = {occ: np.complex128(a) for occ, a in amps.items()}
        assert _bits(FockState(modes, amps, tol)) == _bits(FockState(modes, looped, tol))

    @PROPERTY
    @given(amp_dicts(min_terms=1), st.data())
    def test_any_negative_count_is_rejected(self, data_a, data):
        modes, amps = data_a
        occ = list(data.draw(st.sampled_from(sorted(amps))))
        occ[data.draw(st.integers(0, modes - 1))] = data.draw(st.integers(-5, -1))
        amps[tuple(occ)] = 1.0
        with pytest.raises(InvalidOccupationError, match="negative count in occupation"):
            FockState(modes, amps)

    def test_integral_numpy_counts_are_accepted(self):
        state = FockState(2, {(np.int64(2), np.int32(0)): 1.0, (1.0, 1): 1.0})
        assert dict(state.terms()) == {(1, 1): 1, (2, 0): 1}
        assert all(type(c) is int for occ, _ in state.terms() for c in occ)

    def test_number_state_and_json_stay_validated(self):
        with pytest.raises(InvalidOccupationError, match="negative count"):
            fock.number_state((0, -2))
        with pytest.raises(InvalidOccupationError, match="has length 1, expected 2"):
            fock.state_from_json({"modes": 2, "terms": [{"occ": [1], "re": 1.0, "im": 0.0}]})
        with pytest.raises(InvalidOccupationError, match="non-finite"):
            fock.state_from_json({"modes": 1, "terms": [{"occ": [1], "re": float("nan"), "im": 0.0}]})


# -- work counts: validated constructions do not grow with the branch count ------------


def _count_validated(monkeypatch, fn):
    calls = []
    init = FockState.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FockState, "__init__", counting)
    try:
        fn()
    finally:
        monkeypatch.setattr(FockState, "__init__", init)
    return len(calls)


def test_teleport_tn_validates_a_fixed_number_of_states(monkeypatch):
    state = costs.encode_single_rail(0.6, 0.8)
    counts = {n: _count_validated(monkeypatch, lambda n=n: protocols.teleport_tn(state, 0, n))
              for n in (4, 5, 6, 7)}
    # 152 to 6,979 branches: the resource and, below optics.ARRAY_MIN_TERMS
    # (n <= 5), the Fourier evolution; a one-pass detection builds none
    assert counts[4] == counts[5] == 2 and counts[6] == counts[7] == 1


def test_csign_teleported_validates_one_state_per_evolution(monkeypatch):
    plus = protocols.encode_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
    state = fock.tensor(plus, plus)
    evolutions = []
    # gadgets evolve through protocols' binding, a small detection through optics'
    for module in (protocols, optics):
        apply_unitary = module.apply_unitary

        def counting(*args, _apply=apply_unitary, **kwargs):
            evolutions.append(1)
            return _apply(*args, **kwargs)

        monkeypatch.setattr(module, "apply_unitary", counting)
    validated = _count_validated(monkeypatch, lambda: protocols.csign_teleported(
        state, BosonicQubit(0, 1), BosonicQubit(2, 3), 2))
    assert evolutions
    assert validated <= len(evolutions) + 1
