import cmath
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockworks import costs, fock, optics, protocols, verify
from fockworks._backend import kernels
from fockworks.fock import FockState, ModeMismatchError, number_state
from fockworks.optics import (
    BeamSplitter,
    BudgetExceeded,
    ElementSequence,
    ModeUnitary,
    NonUnitaryError,
    PhaseShifter,
    apply_mode_unitary,
    apply_unitary,
    compose,
    decompose_reck,
    element_matrix,
    embed,
    fourier_matrix,
    random_unitary,
    transition_amplitude,
)
from fockworks.protocols import make_resource, teleport_tn

BAL = math.pi / 4


class TestElementMatrices:
    def test_phase_shifter_pi(self):
        assert np.allclose(element_matrix(PhaseShifter(0, math.pi)).matrix, [[-1]])

    def test_beam_splitter_zero_is_identity(self):
        assert np.allclose(element_matrix(BeamSplitter(0, 1, 0.0)).matrix, np.eye(2))

    def test_balanced_splitter_matrix(self):
        expect = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
        assert np.allclose(element_matrix(BeamSplitter(0, 1, BAL)).matrix, expect)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            BeamSplitter(2, 2, 0.1)

    @pytest.mark.parametrize("make", [
        lambda: ModeUnitary([[math.nan]]),
        lambda: ModeUnitary([[math.inf, 0], [0, 1]]),
        lambda: element_matrix(BeamSplitter(0, 1, math.nan)),
        lambda: element_matrix(PhaseShifter(0, math.inf)),
    ], ids=["nan", "inf", "nan-splitter", "inf-phase"])
    def test_non_finite_matrix_rejected(self, make):
        with pytest.raises(NonUnitaryError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ModeUnitary(np.zeros((0, 0))),
        lambda: optics.unitarity_residual(np.zeros((0, 0))),
    ], ids=["unitary", "residual"])
    def test_empty_matrix_rejected(self, make):
        with pytest.raises(NonUnitaryError, match="at least one mode"):
            make()


class TestFourier:
    def test_n1_matrix(self):
        expect = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.abs(fourier_matrix(1).matrix - expect).max() < 1e-12

    def test_n2_unitary(self):
        f = fourier_matrix(2)
        assert optics.unitarity_residual(f.matrix) < 1e-12

    def test_first_row_sum(self):
        for n in (1, 2, 3):
            f = fourier_matrix(n)
            assert abs(f.matrix[0].sum() - math.sqrt(n + 1)) < 1e-12

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            fourier_matrix(0)

    def test_requires_an_integer_n_before_building(self, monkeypatch):
        # a 2.5-point transform is no unitary: refused before np.exp builds it
        monkeypatch.setattr(np, "exp", None)
        with pytest.raises(ValueError, match=r"^need an integer n >= 1, got 2\.5$"):
            fourier_matrix(2.5)

    def test_repeated_calls_share_one_matrix(self):
        f = fourier_matrix(4)
        assert fourier_matrix(4) is f and fourier_matrix(3) is not f
        assert not f.matrix.flags.writeable


class TestEmbed:
    def test_phase_in_three_modes(self):
        full = embed(PhaseShifter(1, math.pi), 3)
        assert np.allclose(full.matrix, np.diag([1, -1, 1]))

    def test_beamsplitter_skips_middle_mode(self):
        full = embed(BeamSplitter(0, 2, 0.3), 3).matrix
        assert full[1, 1] == 1 and full[1, 0] == full[0, 1] == 0
        assert abs(full[0, 0] - math.cos(0.3)) < 1e-15
        assert abs(full[2, 0] - math.sin(0.3)) < 1e-15

    def test_disjoint_elements_commute(self):
        a = embed(BeamSplitter(0, 1, 0.7), 4).matrix
        b = embed(PhaseShifter(3, 1.1), 4).matrix
        assert np.allclose(a @ b, b @ a)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            embed(PhaseShifter(3, 0.1), 3)


class TestEvolution:
    def test_single_photon_split(self):
        out = apply_mode_unitary(number_state((1, 0)), element_matrix(BeamSplitter(0, 1, BAL)))
        assert abs(out.amplitude((1, 0)) - 1 / math.sqrt(2)) < 1e-12
        assert abs(out.amplitude((0, 1)) - 1 / math.sqrt(2)) < 1e-12

    def test_two_photon_bunching(self):
        # balanced splitter on |11>: photons bunch, |11> amplitude is exactly 0
        out = apply_mode_unitary(number_state((1, 1)), element_matrix(BeamSplitter(0, 1, BAL)))
        assert out.amplitude((1, 1)) == 0
        assert abs(out.amplitude((0, 2)) - 1 / math.sqrt(2)) < 1e-12
        assert abs(out.amplitude((2, 0)) + 1 / math.sqrt(2)) < 1e-12

    def test_identity(self, rng):
        s = FockState(2, {(0, 1): 0.6, (2, 0): 0.8})
        out = apply_mode_unitary(s, ModeUnitary(np.eye(2)))
        assert fock.states_close(s, out, tol=1e-14)

    def test_norm_and_photon_number_preserved(self, rng):
        u = random_unitary(3, rng)
        s = FockState(3, {(1, 2, 0): 0.6, (0, 0, 3): 0.8j})
        out = apply_mode_unitary(s, u)
        assert abs(out.norm() - 1) < 1e-10
        assert out.total_photons() == {3}

    def test_functoriality(self, rng):
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        s = number_state((1, 1, 0))
        chained = apply_mode_unitary(apply_mode_unitary(s, u), v)
        combined = apply_mode_unitary(s, v @ u)
        assert fock.states_close(chained, combined, tol=1e-10)

    def test_subset_application(self, rng):
        u = random_unitary(2, rng)
        s = number_state((1, 0, 2))
        via_subset = apply_unitary(s, u, [0, 2])
        via_embed = apply_mode_unitary(s, optics.embed_matrix(u, [0, 2], 3))
        assert fock.states_close(via_subset, via_embed, tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ModeMismatchError):
            apply_mode_unitary(number_state((1,)), ModeUnitary(np.eye(2)))


class TestPermanentOracle:
    def test_identity_transition(self):
        assert transition_amplitude(ModeUnitary(np.eye(2)), (1, 1), (1, 1)) == 1

    def test_balanced_splitter_hom_dip(self):
        u = element_matrix(BeamSplitter(0, 1, BAL))
        assert abs(transition_amplitude(u, (1, 1), (1, 1))) < 1e-15

    def test_photon_conservation_zero(self):
        u = element_matrix(BeamSplitter(0, 1, 0.3))
        assert transition_amplitude(u, (1, 0), (2, 0)) == 0

    @pytest.mark.parametrize("occ_in, occ_out", [((-1, 1), (0, 0)), ((1, 0), (2, -1))])
    def test_negative_occupation_rejected(self, occ_in, occ_out):
        with pytest.raises(fock.InvalidOccupationError, match="negative count"):
            transition_amplitude(ModeUnitary(np.eye(2)), occ_in, occ_out)

    @pytest.mark.parametrize("occ_in, occ_out", [((1.7, 0), (1, 0)), ((1, 0), (0, 0.5))])
    def test_fractional_occupation_rejected(self, occ_in, occ_out):
        with pytest.raises(fock.InvalidOccupationError, match="non-integral count"):
            transition_amplitude(ModeUnitary(np.eye(2)), occ_in, occ_out)
        assert transition_amplitude(ModeUnitary(np.eye(2)), (np.int64(1), 0), (1, 0)) == 1

    def test_matches_expansion(self, rng):
        # oracle equivalence on a haphazard sample (full sweep in acceptance)
        u = random_unitary(4, rng)
        state = apply_mode_unitary(number_state((1, 0, 2, 0)), u)
        for occ, amp in state.terms():
            assert abs(transition_amplitude(u, (1, 0, 2, 0), occ) - amp) < 1e-10


@st.composite
def evolutions(draw):
    """A random unitary on 1-4 modes and a superposition of up to four
    occupations of at most 4 photons each."""
    modes = draw(st.integers(1, 4))
    u = random_unitary(modes, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    occupation = st.lists(st.integers(0, modes - 1), max_size=4).map(
        lambda photons: tuple(photons.count(m) for m in range(modes)))
    occs = draw(st.lists(occupation, min_size=1, max_size=4, unique=True))
    amps = {occ: draw(st.floats(0.1, 1.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
            for occ in occs}
    return u, FockState(modes, amps).normalized()


def _photon_weights(state):
    weights = {}
    for occ, amp in state.terms():
        weights[sum(occ)] = weights.get(sum(occ), 0.0) + abs(amp) ** 2
    return weights


class TestEvolutionProperties:
    @settings(max_examples=40, deadline=None)
    @given(evolutions())
    def test_transition_amplitude_equals_the_evolved_amplitude(self, data):
        u, state = data
        for occ, _ in state.terms():
            evolved = apply_unitary(number_state(occ), u)
            outs = itertools.product(range(sum(occ) + 1), repeat=len(occ))
            for out in (o for o in outs if sum(o) == sum(occ)):
                assert abs(transition_amplitude(u, occ, out) - evolved.amplitude(out)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(evolutions())
    def test_norm_and_photon_number_are_conserved(self, data):
        u, state = data
        evolved = apply_unitary(state, u)
        assert abs(evolved.norm() - 1) < 1e-10
        before, after = _photon_weights(state), _photon_weights(evolved)
        assert set(after) == set(before)
        assert all(abs(before[k] - after[k]) < 1e-10 for k in before)


@st.composite
def route_cases(draw):
    """A state, a unitary on some of its modes, and whether the evolution
    takes arrays: 6-12 terms of 5 photons in 8 modes under an 8-mode unitary
    (output bound 4,752-9,504) without an exact zero in a column an input
    photon enters, where a column with one takes dicts, or up to five terms
    of at most 3 photons in 1-5 modes under a unitary on a subset (bound at
    most 175). Amplitude parts and unitaries include exact and signed
    zeros."""
    large = draw(st.booleans())
    if large:
        modes, photons, count = 8, 5, draw(st.integers(6, 12))
        subset = draw(st.permutations(range(modes)))
    else:
        modes, photons, count = draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(1, 5))
        subset = draw(st.permutations(range(modes)))[:draw(st.integers(1, modes))]
    occupation = st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons).map(
        lambda where: tuple(where.count(m) for m in range(modes)))
    occs = draw(st.lists(occupation, min_size=6 if large else 1, max_size=count, unique=True))
    part = st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-1.0, 1.0)
    # far above the construction prune, so every drawn term is kept
    amp = st.tuples(part, part).filter(lambda parts: abs(complex(*parts)) > 1e-6)
    amps = {occ: complex(*draw(amp)) for occ in occs}
    d = len(subset)
    seeded = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = draw(st.sampled_from([
        lambda: random_unitary(d, seeded),
        lambda: ModeUnitary(-np.eye(d)[seeded.permutation(d)]),
        lambda: ModeUnitary(np.diag(np.exp(1j * seeded.uniform(0, 2 * math.pi, d)))),
        lambda: fourier_matrix(d - 1) if d > 1 else ModeUnitary([[1j]]),
    ]))()
    filled = [l for l in range(d) if any(occ[subset[l]] for occ in occs)]
    zero_free = all(u.matrix[j, l] != 0 for j in range(d) for l in filled)
    return FockState(modes, amps), u, list(subset), large and zero_free


def _bits(state):
    """Every term in insertion order, with float.hex of its amplitude."""
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in state._amp.items()]


def _recording(taken, route=optics._route):
    """``optics._route`` that appends what it returns to ``taken``: the
    array route's occupation rows, or None for the dict route."""
    return lambda *args: taken.append(route(*args)) or taken[-1]


def _routes(monkeypatch):
    """What ``optics._route`` returns for every apply_unitary from here on;
    None is the dict route."""
    taken = []
    monkeypatch.setattr(optics, "_route", _recording(taken))
    return taken


@st.composite
def mixed_cases(draw):
    """A state whose terms share kept occupations with the same or another
    photon total, and a Haar unitary on the evolved modes: 3-6 modes whose
    terms hold 0-4 photons on 1-4 evolved modes and kept counts of 0-2, or
    a wide state, past 62 bits as one bit field per mode: up to 34 modes,
    at most 3 photons on up to 32 evolved modes and kept counts up to 2^62."""
    wide = draw(st.booleans())
    modes = draw(st.integers(3, 34 if wide else 6))
    subset = draw(st.permutations(range(modes)))[:draw(st.integers(1, min(32 if wide else 4, modes - 1)))]
    kept = [m for m in range(modes) if m not in subset]
    count = st.sampled_from([0, 1, 2**61, 2**62]) if wide else st.integers(0, 2)
    rests = draw(st.lists(st.tuples(*[count] * len(kept)), min_size=1, max_size=3))
    if wide:  # a multiset of at most 3 of the evolved modes
        subs = st.lists(st.integers(0, len(subset) - 1), max_size=3).map(
            lambda photons: tuple(map(photons.count, range(len(subset)))))
    else:
        subs = st.tuples(*[st.integers(0, 2)] * len(subset)).filter(lambda sub: sum(sub) <= 4)
    amps = {}
    for sub, rest in draw(st.lists(st.tuples(subs, st.sampled_from(rests)), min_size=1, max_size=12)):
        occ = [0] * modes
        for m, k in zip(subset + kept, sub + rest):
            occ[m] = k
        amps[tuple(occ)] = complex(*draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1))
                                         .filter(lambda parts: abs(complex(*parts)) > 1e-6)))
    u = random_unitary(len(subset), np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return FockState(modes, amps), u, subset


class TestEvolutionRoutes:
    @settings(max_examples=60, deadline=None)
    @given(route_cases())
    def test_array_and_dict_routes_agree_bit_for_bit(self, case):
        state, u, modes, large = case
        taken = optics._route(list(state.terms()), [tuple(occ[m] for m in modes)
                                                    for occ, _ in state.terms()], u.matrix, modes)
        assert (taken is not None) == large
        natural = apply_unitary(state, u, modes)
        # the other route: arrays from any bound, or dicts for every bound
        forced = optics.MAX_EVOLVED_TERMS + 1 if large else 1
        with mock.patch.object(optics, "ARRAY_MIN_TERMS", forced):
            other = apply_unitary(state, u, modes)
        assert _bits(natural) == _bits(other)

    @settings(max_examples=60, deadline=None)
    @given(mixed_cases())
    def test_mixed_totals_and_kept_modes_agree_bit_for_bit(self, case):
        state, u, modes = case
        with mock.patch.object(optics, "ARRAY_MIN_TERMS", 1):
            with mock.patch.object(optics, "_route", _recording(routes := [])):
                arrays = apply_unitary(state, u, modes)
        with mock.patch.object(optics, "ARRAY_MIN_TERMS", optics.MAX_EVOLVED_TERMS + 1):
            dicts = apply_unitary(state, u, modes)
        assert len(routes) == 1 and routes[0] is not None
        assert _bits(arrays) == _bits(dicts)

    @pytest.mark.parametrize("zero", [0.0, -0.0, complex(-0.0, -0.0)])
    def test_exact_zeros_in_a_filled_column_take_dicts(self, zero, monkeypatch):
        # column 1 holds the zero; 90 photons on 3 modes bound 4,186 outputs
        u = ModeUnitary([[3**-0.5, 2**-0.5, 6**-0.5], [3**-0.5, -(2**-0.5), 6**-0.5],
                         [3**-0.5, zero, -2 * 6**-0.5]])
        taken = _routes(monkeypatch)
        clear = apply_unitary(number_state((90, 0, 0)), u)
        filled = apply_unitary(FockState(3, {(89, 1, 0): 0.6, (90, 0, 0): 0.8}), u)
        assert taken[0] is not None and taken[1] is None
        assert abs(filled.norm() - 1) < 1e-10
        # a zero in a column no photon enters: the arrays give the dicts' bits
        monkeypatch.setattr(optics, "ARRAY_MIN_TERMS", optics.MAX_EVOLVED_TERMS + 1)
        assert _bits(apply_unitary(number_state((90, 0, 0)), u)) == _bits(clear)

    def test_a_warm_evolution_expands_once_without_a_sort(self, empty_rows, table_builds, monkeypatch,
                                                           rng):
        basis = [c for c in itertools.product(range(6), repeat=8) if sum(c) == 5]
        picks = rng.choice(len(basis), 40, replace=False)
        state = FockState(8, {basis[j]: complex(*rng.normal(size=2)) for j in picks}).normalized()
        u = random_unitary(8, rng)
        warm = apply_unitary(state, u)
        assert table_builds == [(8, t) for t in range(1, 6)]
        table_builds.clear()
        expansions = []
        expand = kernels.expand_basis_state
        monkeypatch.setattr(kernels, "expand_basis_state",
                            lambda *a, **k: expansions.append(1) or expand(*a, **k))
        monkeypatch.setattr(np, "unique", None)
        assert _bits(apply_unitary(state, u)) == _bits(warm)
        assert len(expansions) == 1 and not table_builds

    def test_a_small_store_gives_the_same_bits(self, empty_rows, monkeypatch):
        # the dict route builds rank tables too: bound the store before either route runs
        empty_rows(floats=5000)
        state, u = number_state((300, 0)), element_matrix(BeamSplitter(0, 1, BAL))
        dicts = apply_unitary(state, u)
        monkeypatch.setattr(optics, "ARRAY_MIN_TERMS", 1)
        taken = _routes(monkeypatch)
        assert _bits(apply_unitary(state, u)) == _bits(dicts) and taken[0] is not None
        # 300 levels of 2 modes, each held from its first request: the last
        # ones requested fit the budget, the first were dropped
        levels = [t for m, t in kernels._ROWS]
        assert levels == list(range(301 - len(levels), 301)) and 1 < len(levels) < 300
        assert kernels._row_floats <= 5000 - sys.getsizeof(kernels._ROWS) // 8

    def test_evolution_sized_input_takes_arrays(self, monkeypatch, rng):
        basis = [c for c in itertools.product(range(6), repeat=8) if sum(c) == 5]
        picks = rng.choice(len(basis), 40, replace=False)
        state = FockState(8, {basis[j]: complex(*rng.normal(size=2)) for j in picks}).normalized()
        taken = _routes(monkeypatch)
        apply_unitary(state, random_unitary(8, rng))
        assert len(taken) == 1 and taken[0] is not None

    @pytest.mark.parametrize("run", [
        lambda: costs.make_trial("ns1", seed_state=FockState(1, {(0,): 0.6, (1,): 0.8})),
        lambda: costs.make_trial("csign_ns"),
        lambda: apply_unitary(number_state(tuple([2] + [0] * 31)), fourier_matrix(31)),
        lambda: apply_unitary(number_state((70, 0)), element_matrix(BeamSplitter(0, 1, BAL))),
        lambda: apply_unitary(number_state((150, 0)), element_matrix(BeamSplitter(0, 1, BAL))),
    ], ids=["ns1", "csign_ns", "fourier32", "splitter70", "splitter150"])
    def test_small_evolutions_take_dicts(self, run, monkeypatch):
        taken = _routes(monkeypatch)
        run()
        assert taken and all(occ is None for occ in taken)

    def test_criterion9_fanouts_take_arrays(self, monkeypatch):
        # 32-way fan-outs of 3 and 4 photons: 64 and 96 bits as per-mode
        # fields, yet their rank keys are below 5,984 and 52,360
        taken = _routes(monkeypatch)
        verify.criterion_09_fanout()
        large = [occ.tolist() for occ in taken if occ is not None]
        assert large == [[[3] + [0] * 31], [[4] + [0] * 31]]
        for k, outputs in ((3, 5984), (4, 52360)):
            state = number_state((k,) + (0,) * 31)
            arrays = apply_unitary(state, fourier_matrix(31))
            with mock.patch.object(optics, "ARRAY_MIN_TERMS", optics.MAX_EVOLVED_TERMS + 1):
                dicts = apply_unitary(state, fourier_matrix(31))
            assert arrays.term_count() == outputs and _bits(arrays) == _bits(dicts)

    def test_an_embedded_splitter_expands_on_its_support_rows(self, monkeypatch):
        # a 20-mode embed holds exact zeros in every column: the dict route,
        # each term expanded on the rows its filled columns reach (the first
        # term's five photons on five rows, 126 rank slots) and listing the
        # outputs its nonzero entries reach (three), with the amplitudes of
        # the splitter on its own two modes
        state = FockState(20, {(1, 1, 0, 1, 0, 0, 2) + (0,) * 13: 0.6,
                               (2, 0, 1) + (0,) * 16 + (2,): 0.8j})
        taken = _routes(monkeypatch)
        full = apply_unitary(state, embed(BeamSplitter(5, 6, 0.3), 20))
        assert taken == [None]
        part = apply_unitary(state, element_matrix(BeamSplitter(0, 1, 0.3)), [5, 6])
        assert full._amp == part._amp and len(full._amp) == 4
        rows = [kernels.expand_basis_state(embed(BeamSplitter(5, 6, 0.3), 20).matrix, occ)
                for occ in state._amp]
        assert sorted(map(len, rows)) == [1, 3]


class TestBudget:
    def test_photons_past_the_float_range_are_refused_before_expanding(self, empty_rows, monkeypatch):
        split, phase = element_matrix(BeamSplitter(0, 1, 0.3)), element_matrix(PhaseShifter(0, 0.3))
        # sqrt(300!) is a float: the evolution keeps its norm and the expansion's
        # values (a permanent of 300 photons is out of the oracle's reach)
        out = apply_unitary(number_state((300, 0)), split)
        row = kernels.expand_basis_state(split.matrix, (300, 0))
        assert abs(out.norm() - 1) < 1e-12 and all(row[occ] == a for occ, a in out.terms())
        assert abs(apply_unitary(number_state((300,)), phase).amplitude((300,))
                   - cmath.exp(300j * 0.3)) < 1e-12
        # sqrt(301!) is not: refused, naming the photons, before any expansion or permanent
        expansions = []
        level = kernels._level
        monkeypatch.setattr(kernels, "_level", lambda *a: expansions.append(1) or level(*a))
        expand = kernels.expand_basis_state
        monkeypatch.setattr(kernels, "expand_basis_state",
                            lambda *a, **k: expansions.append(1) or expand(*a, **k))
        for run, photons in [
            (lambda: apply_unitary(FockState(2, {(1, 0): 0.6, (301, 0): 0.8}), split), 301),
            (lambda: apply_unitary(number_state((400,)), phase), 400),
            (lambda: transition_amplitude(split, (301, 0), (0, 301)), 301),
        ]:
            with pytest.raises(BudgetExceeded, match=f"^{photons} photons"):
                run()
            assert not expansions
        for occ in ((301, 0), [(301, 0), (300, 1)]):
            with pytest.raises(BudgetExceeded, match="^301 photons"):
                expand(split.matrix, occ, arrays=isinstance(occ, list))
        assert expansions == []

    def test_limit_is_inclusive(self, monkeypatch):
        # nine photons on two modes: ten output terms
        state, u = number_state((9, 0)), element_matrix(BeamSplitter(0, 1, BAL))
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 10)
        assert apply_unitary(state, u).term_count() == 10
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 9)
        with pytest.raises(BudgetExceeded):
            apply_unitary(state, u)

    def test_oversize_evolution_fails_before_expanding(self, empty_rows, monkeypatch):
        # a caller's resource is built already: the evolution's own bound refuses it
        calls = []
        expand = kernels.expand_basis_state
        monkeypatch.setattr(kernels, "expand_basis_state", lambda *a, **k: calls.append(1) or expand(*a, **k))
        with pytest.raises(BudgetExceeded, match="15600899"):
            teleport_tn(costs.encode_single_rail(1, 1), 0, 12, resource=make_resource("tn", 12))
        assert not calls

    def test_an_oversize_standard_resource_is_never_built(self, monkeypatch):
        # its term of n photons in the measured group alone bounds C(2n, n)
        # outputs, built as C(n + i, i) up to the first past the budget:
        # C(24, 12) = 2,704,156 at n = 12, C(10^9 + 1, 1) at n = 10^9. A
        # sampled run evolves no such term, and builds it
        state = costs.encode_single_rail(1, 1)
        assert teleport_tn(state, 0, 18, rng=np.random.default_rng(1)).details["n"] == 18
        built = []
        monkeypatch.setattr(protocols, "make_resource", lambda *a: built.append(a))
        for n, least in [(12, 2704156), (10**9, 10**9 + 1)]:
            with pytest.raises(BudgetExceeded, match=f"at n = {n} may produce at least {least} terms"):
                teleport_tn(state, 0, n)
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 6)  # C(4, 2) = 6 fits; C(6, 3) passes at C(5, 2)
        with pytest.raises(BudgetExceeded, match="at least 10 terms; the limit is 6"):
            teleport_tn(state, 0, 3)
        assert built == []

    def test_a_capped_binomial_is_exact_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 10**6)
        for n, k in itertools.product(range(40), repeat=2):
            if k <= n and math.comb(n, k) <= 10**6:
                assert optics._capped_comb(n, k) == math.comb(n, k), (n, k)
            elif k <= n:
                assert 10**6 < optics._capped_comb(n, k) <= math.comb(n, k), (n, k)
        assert optics._capped_comb(2 * 10**18, 10**18) == 10**18 + 1

    def test_a_budget_message_stays_short_and_typed(self):
        # 15,999 choose 7,999 outputs: 4,814 digits, past str()'s 4,300
        with pytest.raises(BudgetExceeded, match=r"may produce more than 10\^4813 terms; the limit is 2000000$"):
            optics._bound([(8000,) + (0,) * 7999], 8000)
        for count, shown in [(10**30 - 1, "9" * 30), (10**30, "more than 10^29"),
                             (2**64 + 1, "18446744073709551617"), (10**5000, "more than 10^4999")]:
            with pytest.raises(BudgetExceeded) as refused:
                optics._within_budget(count)
            assert str(refused.value) == f"the evolution may produce {shown} terms; the limit is 2000000"


class TestComposeDecompose:
    def test_empty_sequence_is_identity(self):
        seq = ElementSequence(modes=3)
        assert np.allclose(compose(seq).matrix, np.eye(3))

    def test_inverse_pair(self):
        seq = ElementSequence(2, (BeamSplitter(0, 1, 0.4), BeamSplitter(0, 1, -0.4)))
        assert np.allclose(compose(seq).matrix, np.eye(2))

    def test_diagonal_gives_phase_shifters(self):
        u = ModeUnitary(np.diag([np.exp(0.3j), np.exp(-1.2j)]))
        seq = decompose_reck(u)
        assert all(isinstance(e, PhaseShifter) for e in seq.elements)
        assert len(seq.elements) == 2
        assert np.abs(compose(seq).matrix - u.matrix).max() < 1e-12

    def test_real_rotation_gives_single_splitter(self):
        theta = 0.6
        u = ModeUnitary([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])
        seq = decompose_reck(u)
        splitters = [e for e in seq.elements if isinstance(e, BeamSplitter)]
        assert len(splitters) == 1
        assert np.abs(compose(seq).matrix - u.matrix).max() < 1e-12

    def test_identity_decomposes_to_nothing(self):
        seq = decompose_reck(ModeUnitary(np.eye(3)))
        assert seq.elements == ()
        assert seq.global_phase == 1

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_round_trip(self, dim, rng):
        u = random_unitary(dim, rng)
        seq = decompose_reck(u)
        assert np.abs(compose(seq).matrix - u.matrix).max() < 1e-10
        assert len(seq.elements) <= dim * dim

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            ModeUnitary(np.ones((2, 2)))


@st.composite
def unitaries(draw):
    """1-6 mode unitaries: Haar-random, or a permutation with phases (exact zeros)."""
    dim = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return random_unitary(dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    perm = draw(st.permutations(range(dim)))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=dim, max_size=dim))
    mat = np.zeros((dim, dim), dtype=complex)
    for row, (col, phi) in enumerate(zip(perm, phases)):
        mat[row, col] = cmath.exp(1j * phi)
    return ModeUnitary(mat)


class TestReckProperties:
    @settings(max_examples=60, deadline=None)
    @given(unitaries())
    def test_compose_inverts_decompose(self, u):
        assert np.abs(compose(decompose_reck(u)).matrix - u.matrix).max() < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(unitaries())
    def test_netlist_json_round_trip(self, u):
        seq = decompose_reck(u)
        assert optics.load_sequence(optics.dump_sequence(seq)) == seq


class TestNetlistJson:
    def test_round_trip(self, rng):
        u = random_unitary(3, rng)
        seq = decompose_reck(u)
        again = optics.load_sequence(optics.dump_sequence(seq))
        assert again == seq

    def test_schema_fields(self):
        seq = ElementSequence(2, (BeamSplitter(0, 1, 0.5), PhaseShifter(1, -0.25)))
        data = optics.sequence_to_json(seq)
        assert data["modes"] == 2
        assert data["elements"][0] == {"kind": "bs", "modes": [0, 1], "theta": 0.5}
        assert data["elements"][1] == {"kind": "ps", "modes": [1], "theta": -0.25}
        assert data["global_phase"] == {"re": 1.0, "im": 0.0}
