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
        assert not isinstance(raised.value, ModeIndexError)

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
