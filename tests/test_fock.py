import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockworks import fock, measure, optics
from fockworks.fock import (
    FockState,
    InvalidOccupationError,
    ModeIndexError,
    ModeMismatchError,
    ZeroStateError,
    canonicalize,
    inner_product,
    number_state,
    tensor,
)

INV_SQRT2 = 1 / math.sqrt(2)


def random_state(rng, modes=2, terms=4, max_photons=2):
    amps = {}
    for _ in range(terms):
        occ = tuple(int(k) for k in rng.integers(0, max_photons + 1, size=modes))
        amps[occ] = complex(rng.normal(), rng.normal())
    return FockState(modes, amps).normalized()


class TestNumberState:
    def test_vacuum(self):
        s = number_state((0, 0))
        assert s.amplitude((0, 0)) == 1
        assert s.term_count() == 1

    def test_single_boson(self):
        assert number_state((1, 0)).amplitude((1, 0)) == 1

    def test_basis_state_norm(self):
        s = number_state((2, 1, 0))
        assert s.norm() == 1
        assert s.term_count() == 1

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidOccupationError):
            number_state((1, -1))

    def test_fractional_count_rejected(self):
        with pytest.raises(InvalidOccupationError, match=r"non-integral count in occupation \(1.9, 0\)"):
            number_state((1.9, 0))
        assert number_state((np.int64(2), 0.0)).amplitude((2, 0)) == 1

    @pytest.mark.parametrize("make", [
        lambda occ: FockState(len(occ), {occ: 1.0}),  # key by key: a float amplitude
        lambda occ: FockState(len(occ), {occ: 1 + 0j}),  # in bulk
        number_state,
        lambda occ: fock.load_state(json.dumps(
            {"modes": len(occ), "terms": [{"occ": list(occ), "re": 1.0, "im": 0.0}]})),
    ])
    @pytest.mark.parametrize("count", [2**63, 2**70])
    def test_counts_past_int64_rejected(self, make, count):
        with pytest.raises(InvalidOccupationError, match=r"count past 2\^63 - 1"):
            make((1, count))
        assert make((1, 2**63 - 1)).amplitude((1, 2**63 - 1)) == 1

    @pytest.mark.parametrize("modes", [1.5, "3", None])
    def test_mode_count_must_be_an_integer(self, modes):
        with pytest.raises(InvalidOccupationError, match="mode count must be an integer"):
            FockState(modes, {})
        state = FockState(np.int64(2), {(1, 0): 1.0})
        assert type(state.modes) is int and state.modes == 2

    @pytest.mark.parametrize("amps", [
        {(0,): 1e200},  # the square alone overflows
        {(0,): 1.3e154, (1,): 1.3e154},  # each square is finite, their sum is not
    ])
    def test_norm_overflow_is_typed(self, amps):
        with pytest.raises(InvalidOccupationError, match="squared norm overflows"):
            FockState(len(next(iter(amps))), amps)

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(InvalidOccupationError):
            FockState(1, {(0,): float("nan")})


def _loop_kept(amplitudes, tol):
    """The constructors' arithmetic term by term, the reference for their
    array path: ``0j + amp`` of the nonzero terms, the squared norm added
    left to right from 0.0, and the terms past ``tol`` times the norm."""
    cleaned = {occ: 0j + amp for occ, amp in amplitudes.items() if amp != 0}
    total = 0.0
    try:
        for amp in cleaned.values():
            total += abs(amp) ** 2
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        for occ, amp in cleaned.items():
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise InvalidOccupationError(f"non-finite amplitude for {occ}")
        raise InvalidOccupationError("squared norm overflows: amplitudes too large")
    cutoff = tol * math.sqrt(total)
    return {occ: amp for occ, amp in cleaned.items() if abs(amp) > cutoff}


def _listed(amplitudes):
    """Keys, order, type and the bits of both parts of every amplitude."""
    return [(occ, type(amp), amp.real.hex(), amp.imag.hex()) for occ, amp in amplitudes.items()]


@st.composite
def _bulk_dicts(draw):
    """Dicts of 3-mode occupations whose size straddles ``fock._ARRAY_TERMS``,
    a drawn share of their parts exact zeros of either sign or values under
    any cutoff."""
    size = draw(st.sampled_from([fock._ARRAY_TERMS - 1, fock._ARRAY_TERMS, fock._ARRAY_TERMS + 1])
                | st.integers(0, 2 * fock._ARRAY_TERMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=2 * size) * 10.0 ** rng.integers(-3, 4, 2 * size)
    special = rng.random(2 * size) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    parts[special] = rng.choice([0.0, -0.0, 1e-15, -2e-13, 1e-300], special.sum())
    keys = [tuple(map(int, np.unravel_index(k, (10,) * 3))) for k in rng.permutation(1000)[:size]]
    return dict(zip(keys, map(complex, parts[::2].tolist(), parts[1::2].tolist())))


@st.composite
def _unsigned_zero_dicts(draw):
    """``_bulk_dicts`` with every -0.0 part made 0.0 and a drawn share of the
    terms exact zeros, ``0j``."""
    amplitudes = draw(_bulk_dicts())
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {occ: 0j if rng.random() < zeros else complex(amp.real + 0.0, amp.imag + 0.0)
            for occ, amp in amplitudes.items()}


class TestBulkArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(_bulk_dicts(), st.sampled_from([0.0, fock.DEFAULT_TOL, 1e-3, 0.5]))
    def test_both_constructors_have_the_loops_bits(self, amplitudes, tol):
        want = _listed(_loop_kept(amplitudes, tol))
        assert _listed(FockState(3, amplitudes, tol)._amp) == want
        assert _listed(FockState._trusted(3, amplitudes, tol)._amp) == want
        by_key = {tuple(map(np.int64, occ)): amp for occ, amp in amplitudes.items()}  # checked key by key
        assert _listed(FockState(3, by_key, tol)._amp) == want

    @settings(max_examples=100, deadline=None)
    @given(_unsigned_zero_dicts(), st.sampled_from([0.0, fock.DEFAULT_TOL, 1e-3]))
    def test_exact_zeros_without_a_signed_zero_have_the_loops_bits(self, amplitudes, tol):
        want = _listed(_loop_kept(amplitudes, tol))
        assert _listed(FockState(3, amplitudes, tol)._amp) == want
        assert _listed(FockState._trusted(3, amplitudes, tol)._amp) == want

    @pytest.mark.parametrize("tol", [0.0, fock.DEFAULT_TOL])
    def test_exact_zeros_are_dropped_in_one_call(self, monkeypatch, tol):
        # no -0.0 part: the array path drops the zeros by its cutoff, with no
        # dict rebuilt through 0j + amp and no second call
        amplitudes = {(k, 0, 0): 0j if k % 7 == 0 else complex(k, -k) for k in range(fock._ARRAY_TERMS)}
        calls = []
        kept = fock._kept
        monkeypatch.setattr(fock, "_kept", lambda *a: calls.append(1) or kept(*a))
        state = FockState._trusted(3, amplitudes, tol)
        assert calls == [1]
        assert _listed(state._amp) == _listed(_loop_kept(amplitudes, tol))
        assert len(state._amp) == fock._ARRAY_TERMS - 10

    @pytest.mark.parametrize("size", [4, fock._ARRAY_TERMS, 4 * fock._ARRAY_TERMS])
    def test_a_term_at_the_cutoff_is_dropped(self, size):
        # size terms of magnitude 1 under tol = 1 / sqrt(size): the cutoff is 1.0 exactly
        amplitudes = {(k,): [1 + 0j, -1 + 0j, 1j, -1j][k % 4] for k in range(size)}
        amplitudes[(size,)] = 2 + 0j
        tol = 1 / math.sqrt(size + 4)
        assert tol * math.sqrt(size + 4) == 1.0
        assert _listed(FockState(1, amplitudes, tol)._amp) == [((size,), complex, "0x1.0000000000000p+1", "0x0.0p+0")]
        assert FockState._trusted(1, amplitudes, tol)._amp == {(size,): 2 + 0j}

    @pytest.mark.parametrize("size", [3, fock._ARRAY_TERMS, 3 * fock._ARRAY_TERMS])
    @pytest.mark.parametrize("bad", [1e200, 1.3e154 + 1.3e154j, complex("nan"), complex(1.0, float("inf"))])
    def test_overflow_and_nan_raise_the_loops_errors(self, size, bad):
        amplitudes = {(k, 0): complex(1.0, -0.5) for k in range(size)}
        amplitudes[(size // 2, 0)] = complex(bad)
        amplitudes[(size, 1)] = complex(bad)
        with pytest.raises(InvalidOccupationError) as expected:
            _loop_kept(amplitudes, fock.DEFAULT_TOL)
        for make in (FockState, FockState._trusted):
            with pytest.raises(InvalidOccupationError) as raised:
                make(2, amplitudes)
            assert str(raised.value) == str(expected.value)

    def test_keys_of_one_occupation_add_in_the_order_met(self):
        # range(0, 2) and (0, 1) are two keys of one occupation: checked key
        # by key, their amplitudes add, and a sum of 0 is dropped
        state = FockState(2, {(1, 1): 1.0, range(0, 2): complex(-0.0, 0.5), (0, 1): 0.25})
        assert _listed(state._amp) == _listed({(1, 1): 1 + 0j, (0, 1): 0j + complex(-0.0, 0.5) + 0.25})
        assert FockState(2, {range(0, 2): 0.5, (1, 1): 1.0, (0, 1): -0.5})._amp == {(1, 1): 1 + 0j}

    @pytest.mark.parametrize("size", [40, fock._ARRAY_TERMS, 300])
    def test_numpy_complex_amplitudes_build_the_complex_state(self, size):
        rng = np.random.default_rng(size)
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps[::7] *= -0.0  # signed zero parts
        amps[3] = 0.0
        keys = [tuple(map(int, np.unravel_index(k, (6,) * 4))) for k in rng.permutation(6**4)[:size]]
        numpy_state = FockState(4, dict(zip(keys, amps)))
        assert {type(amp) for amp in numpy_state._amp.values()} == {complex}
        assert _listed(numpy_state._amp) == _listed(FockState(4, dict(zip(keys, amps.tolist())))._amp)
        amps[5] = complex("nan")
        with pytest.raises(InvalidOccupationError, match=r"non-finite amplitude for \("):
            FockState(4, dict(zip(keys, amps)))


class TestTensor:
    def test_basis(self):
        assert tensor(number_state((1,)), number_state((0,))).amplitude((1, 0)) == 1

    def test_superposition(self):
        plus = FockState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
        out = tensor(plus, number_state((1,)))
        assert abs(out.amplitude((0, 1)) - INV_SQRT2) < 1e-15
        assert abs(out.amplitude((1, 1)) - INV_SQRT2) < 1e-15

    def test_t1_squared(self):
        # (|01>+|10>)/sqrt2 tensored with itself: four terms of amplitude 1/2
        t1 = FockState(2, {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2})
        out = tensor(t1, t1)
        for occ in [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]:
            assert abs(out.amplitude(occ) - 0.5) < 1e-12
        assert out.term_count() == 4

    def test_norm_multiplies(self, rng):
        a = random_state(rng).scaled(1.7)
        b = random_state(rng, modes=1).scaled(0.3)
        assert abs(tensor(a, b).norm() - a.norm() * b.norm()) < 1e-12

    def test_associativity(self, rng):
        a, b, c = (random_state(rng, modes=m) for m in (1, 2, 1))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert fock.states_close(left, right, tol=1e-12)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(number_state((1, 0)), number_state((1, 0))) == 1
        assert inner_product(number_state((1, 0)), number_state((0, 1))) == 0

    def test_normalized_t1(self):
        t1 = FockState(2, {(0, 1): 1, (1, 0): 1}).normalized()
        assert abs(inner_product(t1, t1) - 1) < 1e-12

    def test_conjugate_symmetry(self, rng):
        for _ in range(10):
            a, b = random_state(rng), random_state(rng)
            assert abs(inner_product(a, b) - inner_product(b, a).conjugate()) < 1e-12

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            inner_product(number_state((0,)), number_state((0, 0)))


class TestCanonicalize:
    def test_prunes_tiny_terms(self):
        s = FockState(1, {(0,): 1.0, (2,): 1e-15}, tol=0)
        out = canonicalize(s, tol=1e-12)
        assert out.term_count() == 1

    def test_idempotent(self, rng):
        for _ in range(5):
            s = random_state(rng).scaled(3.7)
            once = canonicalize(s)
            twice = canonicalize(once)
            assert fock.states_close(once, twice, tol=1e-14)

    def test_normalizes(self):
        s = FockState(2, {(0, 1): 1.0, (1, 0): 1.0}, tol=0)
        out = canonicalize(s)
        assert abs(out.amplitude((0, 1)) - INV_SQRT2) < 1e-15

    def test_zero_state_error(self):
        s = FockState(1, {(0,): 1.0})
        cancelled = s + s.scaled(-1.0)
        with pytest.raises(ZeroStateError):
            canonicalize(cancelled, tol=1e-12)


class TestJsonRoundTrip:
    def test_bit_exact_dyadic(self):
        s = FockState(2, {(0, 1): 0.5 + 0.25j, (1, 0): -0.75}, tol=0)
        again = fock.load_state(fock.dump_state(s))
        assert again.modes == s.modes
        for occ, amp in s.terms():
            assert again.amplitude(occ) == amp

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_amplitude_survives_bit_for_bit(self, data):
        # occupations of 64 photons and more, and amplitudes near 1e-300
        # beside ones of order 1, are kept exactly
        modes = data.draw(st.integers(1, 4))
        part = st.one_of(st.floats(-1e3, 1e3),
                         st.sampled_from([1e-300, -3e-300, 2.5e-308, 5e-324, -0.0]))
        occs = data.draw(st.lists(st.tuples(*[st.integers(0, 300)] * modes), min_size=1,
                                  max_size=8, unique=True))
        amps = {occ: complex(data.draw(part), data.draw(part)) for occ in occs}
        s = FockState(modes, amps, tol=0)
        again = fock.load_state(fock.dump_state(s))

        def bits(state):
            return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.terms()]

        assert again.modes == s.modes and bits(again) == bits(s)

    def test_canonical_term_order(self):
        s = FockState(2, {(1, 0): 1.0, (0, 1): 1.0}, tol=0)
        data = fock.state_to_json(s)
        assert [t["occ"] for t in data["terms"]] == [[0, 1], [1, 0]]


class TestModeOps:
    def test_swap_modes(self):
        s = number_state((1, 0, 2))
        assert fock.swap_modes(s, 0, 2).amplitude((2, 0, 1)) == 1

    def test_permutation_validated(self):
        with pytest.raises(ModeMismatchError):
            fock.permute_modes(number_state((1, 0)), [0, 0])

    def test_phase_on_mode(self):
        s = FockState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
        out = fock.phase_on_mode(s, 0, math.pi)
        assert abs(out.amplitude((1,)) + INV_SQRT2) < 1e-15

    @pytest.mark.parametrize("mode", [-1, 2, 3])
    def test_mode_index_out_of_range(self, mode):
        s = FockState(2, {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2})
        with pytest.raises(ModeIndexError, match=f"mode {mode} out of range for a 2-mode state"):
            s.max_occupation(mode)
        with pytest.raises(ModeIndexError):
            fock.phase_on_mode(s, mode, math.pi)

    def test_mode_index_error_is_a_value_error(self):
        assert issubclass(ModeIndexError, fock.FockError)
        with pytest.raises(ValueError):
            number_state((0,)).max_occupation(1)

    @pytest.mark.parametrize("call", [
        lambda modes: optics.apply_unitary(number_state((1, 0)), optics.fourier_matrix(1), modes),
        lambda modes: optics.embed_matrix(optics.fourier_matrix(1), modes, 2),
        lambda modes: measure.measure_modes(number_state((1, 0)), modes),
    ], ids=["apply_unitary", "embed_matrix", "measure_modes"])
    def test_mode_lists_are_checked_alike(self, call):
        for modes, bad in (([0, 5], 5), ([-1, 1], -1)):
            with pytest.raises(ModeIndexError, match=f"mode {bad} out of range for a 2-mode state"):
                call(modes)
        with pytest.raises(ValueError, match="duplicate modes") as raised:
            call([1, 1])
        assert isinstance(raised.value, ModeIndexError)  # a FockError too

    def test_teleport_of_a_missing_mode_is_typed(self):
        from fockworks import costs, protocols

        with pytest.raises(ModeIndexError):
            protocols.teleport_tn(costs.encode_single_rail(0.6, 0.8), 3, 2)


class TestEntanglementDiagnostics:
    def test_bell_entropy_one_bit(self):
        bell = FockState(2, {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2})
        assert abs(fock.entanglement_entropy(bell, [0]) - 1.0) < 1e-12

    def test_product_entropy_zero(self):
        s = tensor(number_state((1,)), number_state((0,)))
        assert fock.entanglement_entropy(s, [0]) < 1e-12

    def test_schmidt_coefficients(self):
        bell = FockState(2, {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2})
        coeffs = fock.schmidt_coefficients(bell, [0])
        assert np.allclose(coeffs, [INV_SQRT2, INV_SQRT2])
