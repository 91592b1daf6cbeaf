import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fockworks import costs, fock, measure, optics, protocols
from fockworks.fock import FockState, number_state, tensor
from fockworks.measure import (
    Bucket,
    Counter,
    FanoutCounter,
    fanout_count,
    measure_modes,
    postselect,
    sample_outcome,
)

INV_SQRT2 = 1 / math.sqrt(2)


def bell():
    return FockState(2, {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2})


class TestMeasureModes:
    def test_counter_on_bell(self):
        outcomes = measure_modes(bell(), [0], Counter())
        assert [o.outcome for o in outcomes] == [((0, 0),), ((0, 1),)]
        for o in outcomes:
            assert abs(o.probability - 0.5) < 1e-12
        assert outcomes[0].post_state.amplitude((1,)) == 1
        assert abs(outcomes[1].post_state.amplitude((0,))) == 1

    def test_bucket_merges_counts(self):
        s = tensor(number_state((2,)), bell())
        outcomes = measure_modes(s, [0], Bucket())
        assert len(outcomes) == 1
        assert outcomes[0].outcome == ((0, 1),)
        assert abs(outcomes[0].probability - 1.0) < 1e-12
        assert fock.states_close(outcomes[0].post_state, bell(), tol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        amps = {}
        for _ in range(6):
            occ = tuple(int(k) for k in rng.integers(0, 3, size=3))
            amps[occ] = complex(rng.normal(), rng.normal())
        s = FockState(3, amps).normalized()
        outcomes = measure_modes(s, [0, 2], Counter())
        assert abs(sum(o.probability for o in outcomes) - 1) < 1e-10

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            measure_modes(bell(), [0, 0], Counter())

    def test_reordered_disjoint_measurements_commute(self, rng):
        amps = {}
        for _ in range(6):
            occ = tuple(int(k) for k in rng.integers(0, 2, size=4))
            amps[occ] = complex(rng.normal(), rng.normal())
        s = FockState(4, amps).normalized()

        def chain(first, second):
            table = {}
            for o1 in measure_modes(s, first, Counter()):
                rest = [m - sum(1 for f in first if f < m) for m in second]
                for o2 in measure_modes(o1.post_state, rest, Counter()):
                    key = (o1.outcome, tuple(c for _, c in o2.outcome))
                    table[key] = o1.probability * o2.probability
            return table

        ab = chain([0], [2])
        ba = chain([2], [0])
        for (first, second), p in ab.items():
            key = (((2, second[0]),), (first[0][1],))
            assert abs(ba[key] - p) < 1e-10


class TestPostselect:
    def test_deterministic(self):
        out = postselect(number_state((1, 0)), [0], [1])
        assert out.probability == 1
        assert out.post_state.amplitude((0,)) == 1

    def test_half_probability(self):
        out = postselect(bell(), [0], [1])
        assert abs(out.probability - 0.5) < 1e-12

    def test_impossible_outcome_is_signal(self):
        out = postselect(number_state((1, 0)), [0], [2])
        assert out.is_impossible
        assert out.probability == 0.0
        assert out.post_state is None

    @pytest.mark.parametrize("counts", [(1, 1), (0, 0), (0, 2)])
    def test_pattern_the_state_does_not_hold(self, counts):
        # bell() holds (1, 0) and (0, 1) on modes 0, 1; no branch lists these
        out = postselect(tensor(bell(), number_state((1,))), [0, 1], counts)
        assert out.outcome == ((0, counts[0]), (1, counts[1]))
        assert out.is_impossible and out.probability == 0.0

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="not nonnegative integers"):
            postselect(number_state((1, 0)), [0], (1.5,))
        assert postselect(number_state((1, 0)), [0], (np.int64(1),)).probability == 1

    def test_matches_counter_branch(self, rng):
        amps = {}
        for _ in range(5):
            occ = tuple(int(k) for k in rng.integers(0, 3, size=2))
            amps[occ] = complex(rng.normal(), rng.normal())
        s = FockState(2, amps).normalized()
        branches = measure_modes(s, [1], Counter())
        for br in branches:
            sel = postselect(s, [1], [br.outcome[0][1]])
            assert abs(sel.probability - br.probability) < 1e-12


class TestImpossibilityRule:
    """measure_modes, postselect, the oracle parity projection and the
    sampled detection share one rule for an impossible branch."""

    def test_tiny_branch_is_impossible_everywhere(self):
        from fockworks import protocols

        state = FockState(1, {(0,): 1.0, (1,): 1e-13}, tol=0)
        assert [br.outcome for br in measure_modes(state, [0])] == [((0, 0),)]
        out = postselect(state, [0], [1])
        assert out.is_impossible and out.probability == 0.0
        pair = FockState(2, {(0, 0): 1.0, (1, 0): 1e-13}, tol=0)
        assert [b["parity"] for b in protocols.parity_project_ideal(pair, 0, 1)] == [0]

    def test_branch_above_the_rule_is_listed_everywhere(self):
        state = FockState(1, {(0,): 1.0, (1,): 1e-11}, tol=0)
        branches = measure_modes(state, [0])
        assert [br.outcome for br in branches] == [((0, 0),), ((0, 1),)]
        assert postselect(state, [0], [1]).probability == branches[1].probability

    def test_sampled_detection_never_draws_outside_the_support(self):
        # the 1e-13 term's sector weighs 1e-26: at or below the prune of an
        # evolution, so every draw lands on the zero-photon pattern
        state = FockState(1, {(0,): 1.0, (1,): 1e-13}, tol=0)
        u = optics.ModeUnitary(np.eye(1))
        rng = np.random.default_rng(0)
        assert {measure._sample_detection(state, u, [0], rng)[0].outcome
                for _ in range(50)} == {((0, 0),)}


class _Uniforms:
    """A stand-in generator: fixed uniforms, and the identity permutation."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def permutation(self, n):
        return np.arange(n)


class TestSampleDetection:
    def test_drawn_branch_is_pruned_as_an_evolution_is(self):
        # the drawn branch weighs 1e-6 of the state; its 5e-13 term lies
        # below 1e-12 of the whole state, so the evolution drops it, though
        # it is above 1e-12 of the branch itself
        state = FockState(2, {(0, 0): 1.0, (1, 0): 1e-3, (1, 1): 5e-13}, tol=0)
        u = optics.ModeUnitary(np.eye(1))
        [drawn] = measure._sample_detection(state, u, [0], _Uniforms(0.9999995, 0.5))
        exact = measure_modes(optics.apply_unitary(state, u, [0]), [0])
        assert drawn.outcome == exact[1].outcome == ((0, 1),)
        assert abs(drawn.probability - exact[1].probability) < 1e-15
        post = drawn.post_state
        assert dict(post.terms()).keys() == dict(exact[1].post_state.terms()).keys() == {(0,)}

    def test_a_sector_past_the_permanent_budget_is_refused_before_a_draw(self, monkeypatch):
        # with a limit of 16, 5 photons walk 2^4 sign vectors and are drawn,
        # while a sector of 6 (2^5) is refused before any draw or walk, even
        # one that weighs 1e-6 of the state
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 16)
        u = optics.fourier_matrix(1)
        [drawn] = measure._sample_detection(number_state((3, 2)), u, [0, 1], np.random.default_rng(1))
        assert sum(count for _, count in drawn.outcome) == 5
        monkeypatch.setattr(measure.kernels, "permanent_minors", None)
        for state in (number_state((4, 2, 1)), FockState(3, {(4, 2, 0): 1e-3, (1, 0, 1): 1.0})):
            with pytest.raises(fock.BudgetExceeded, match="^6 photons"):
                measure._sample_detection(state, u, [0, 1], _Uniforms())


class TestFanout:
    def test_single_photon_always_one_click(self):
        outcomes, mis = fanout_count(number_state((1,)), 0, 7)
        assert mis == 0
        assert [o.outcome[0][1] for o in outcomes] == [1]

    def test_two_photons_ten_detectors(self):
        _, mis = fanout_count(number_state((2,)), 0, 10)
        assert abs(mis - 0.1) < 1e-10

    def test_three_photons_sixteen_detectors(self):
        _, mis = fanout_count(number_state((3,)), 0, 16)
        assert abs(mis - 0.1796875) < 1e-10
        assert mis <= 3 * 2 / (2 * 16)

    def test_misdetect_formula_and_bound(self):
        for k in (2, 3, 4):
            for n in (4, 8):
                _, mis = fanout_count(number_state((k,)), 0, n)
                exact = 1 - math.prod(range(n, n - k, -1)) / n ** k
                assert abs(mis - exact) < 1e-10
                assert mis <= k * (k - 1) / (2 * n) + 1e-12

    def test_clicks_distribution_sums_to_one(self):
        outcomes, _ = fanout_count(number_state((3,)), 0, 5)
        assert abs(sum(o.probability for o in outcomes) - 1) < 1e-10

    def test_as_detector_model(self):
        outcomes = measure_modes(number_state((2, 0)), [0], FanoutCounter(10))
        mis_branch = [o for o in outcomes if o.outcome[0][1] == 1]
        assert abs(sum(o.probability for o in mis_branch) - 0.1) < 1e-10

    def test_two_modes_sequentially(self):
        outcomes = measure_modes(number_state((1, 0, 1)), [0, 2], FanoutCounter(6))
        assert abs(sum(o.probability for o in outcomes) - 1) < 1e-10
        assert all(o.outcome == ((0, 1), (2, 1)) for o in outcomes)
        assert outcomes[0].post_state.amplitude((0,)) == 1

    def test_one_evolution_per_measured_mode(self, monkeypatch):
        calls = []
        apply_unitary = optics.apply_unitary
        monkeypatch.setattr(optics, "apply_unitary", lambda *a: calls.append(1) or apply_unitary(*a))
        state = FockState(3, {(2, 1, 1): 0.6, (1, 0, 2): 0.8})
        outcomes, _ = fanout_count(state, 0, 4)
        assert len(calls) == 1
        assert [o.outcome for o in outcomes] == [((0, 1),), ((0, 2),)]
        measure_modes(state, [0, 2], FanoutCounter(4))
        assert len(calls) == 3

    def test_a_multiport_past_the_budget_is_refused_before_it_is_built(self, empty_rows, monkeypatch):
        # fourier_matrix refuses it, before the multiport or the fanned state is built
        built, held = [], optics.kernels.held
        monkeypatch.setattr(optics.kernels, "held", lambda key, make: built.append(key) or held(key, make))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "vacuum", None)
            with pytest.raises(fock.BudgetExceeded, match="Fourier multiport of 100000 ports"):
                measure_modes(number_state((1,)), [0], FanoutCounter(10**5))
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 16)  # n^2 entries: 4 ports at most
        assert len(fanout_count(number_state((1,)), 0, 4)[0]) == 1
        with pytest.raises(fock.BudgetExceeded, match="Fourier multiport of 5 ports has 25 entries"):
            fanout_count(number_state((1,)), 0, 5)
        assert built == [("fourier", 3)]


class TestDetectorModels:
    @pytest.mark.parametrize("model", ["bucket", object(), None, Counter])
    def test_unknown_model_is_typed(self, model):
        with pytest.raises(measure.DetectorModelError, match="unknown detector model"):
            measure_modes(bell(), [0], model)
        with pytest.raises(fock.FockError):
            sample_outcome(bell(), [0], model, seed=1)

    @pytest.mark.parametrize("n", [0, -2, 2.5, "3"])
    def test_fanout_needs_an_integer_n_of_at_least_one(self, n):
        with pytest.raises(measure.DetectorModelError, match="fan-out requires"):
            FanoutCounter(n)
        with pytest.raises(measure.DetectorModelError, match="fan-out requires"):
            fanout_count(number_state((1,)), 0, n)

    def test_integral_numpy_n_is_accepted(self):
        outcomes, mis = fanout_count(number_state((2,)), 0, np.int64(10))
        assert abs(mis - 0.1) < 1e-10 and len(outcomes) == 2


class TestSampling:
    def test_deterministic_state(self):
        out = sample_outcome(number_state((1, 0)), [0, 1], Counter(), seed=3)
        assert out.outcome == ((0, 1), (1, 0))

    def test_same_seed_same_outcome(self):
        a = sample_outcome(bell(), [0], Counter(), seed=11)
        b = sample_outcome(bell(), [0], Counter(), seed=11)
        assert a.outcome == b.outcome

    @pytest.mark.parametrize("model", [Counter(), Bucket(), FanoutCounter(3)])
    def test_sample_projects_only_the_drawn_branch(self, model, monkeypatch):
        state = fock.FockState(3, {(2, 0, 1): 0.5, (1, 1, 1): 0.5j, (0, 1, 2): -0.5, (1, 0, 2): 0.5})
        branches = measure_modes(state, [0, 1], model)
        draw = measure._drawer(branches.p.tolist())
        for br in branches:  # projected before the count starts
            br.post_state.term_count()
        calls = []
        projection = measure._projection
        monkeypatch.setattr(measure, "_projection", lambda *a: calls.append(1) or projection(*a))
        for seed in range(20):
            got = sample_outcome(state, [0, 1], model, seed)
            want = branches[draw(np.random.default_rng(seed).random())]
            assert (got.outcome, got.probability) == (want.outcome, want.probability)
            assert dict(got.post_state.terms()) == dict(want.post_state.terms())
        assert len(calls) == 20

    @pytest.mark.parametrize("model", [Counter(), Bucket(), FanoutCounter(3)])
    def test_lazy_records_project_to_the_branches(self, model):
        state = fock.FockState(3, {(2, 0, 1): 0.5, (1, 1, 1): 0.5j, (0, 1, 2): -0.5, (1, 0, 2): 0.5})
        records = measure_modes(state, [0, 1], model)
        assert isinstance(records, measure._Records)
        for i, br in enumerate(records):
            assert records[i] is br and br.probability == records.p[i]
            assert br.outcome == tuple(zip(records.measured, records.counts[i].tolist()))
            eager = measure._projection(records.modes, records.block(records.rows[i]),
                                        records.weight.item(i))
            assert dict(br.post_state.terms()) == dict(eager.terms())

    def test_empirical_frequency(self):
        hits = 0
        trials = 100_000
        rng = np.random.default_rng(99)
        records = measure_modes(bell(), [0], Counter())
        draw = measure._drawer(records.p.tolist())
        for _ in range(trials):
            if records[draw(rng.random())].outcome == ((0, 1),):
                hits += 1
        sigma = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) <= 3 * sigma

    def test_outcome_json(self):
        out = postselect(bell(), [0], [1])
        data = out.to_json()
        assert data["outcome"] == [[0, 1]]
        assert abs(data["p"] - 0.5) < 1e-12
        assert data["state"]["modes"] == 1


class TestZeroState:
    def test_postselect_rejects_zero_state(self):
        with pytest.raises(fock.ZeroStateError):
            postselect(FockState(2, {}), [0], [0])

    def test_measure_modes_rejects_zero_state(self):
        with pytest.raises(fock.ZeroStateError):
            measure_modes(FockState(2, {}), [0])

    def test_branch_whose_weight_underflows_is_impossible(self):
        # |4.2e-269|^2 underflows to 0: the branch is left out, as postselect
        # calls it impossible, instead of dividing by its zero weight
        state = FockState(1, {(0,): 1j, (1,): 4.2e-269}, tol=0)
        outcomes = measure_modes(state, [0])
        assert [(o.outcome, o.probability) for o in outcomes] == [(((0, 0),), 1.0)]
        assert postselect(state, [0], [1]).is_impossible

    def test_bucket_class_that_cancels_is_typed(self):
        with pytest.raises(fock.ZeroStateError):
            measure_modes(FockState(2, {(1, 0): 1.0, (2, 0): -1.0}), [0], Bucket())


class TestBucketProbability:
    def test_class_probability_is_the_incoherent_sum(self):
        outcomes = measure_modes(FockState(2, {(1, 0): 0.6, (2, 0): 0.8}), [0], Bucket())
        assert [o.outcome for o in outcomes] == [((0, 1),)]
        assert abs(outcomes[0].probability - 1.0) < 1e-12  # not |0.6 + 0.8|^2 = 1.96
        # the post-state is still the coherent merge, renormalized
        assert abs(outcomes[0].post_state.amplitude((0,)) - 1.0) < 1e-12

    def test_partial_cancellation_keeps_the_class_probability(self):
        state = FockState(2, {(1, 0): 0.6, (2, 0): -0.3, (0, 1): math.sqrt(0.55)})
        probs = {o.outcome: o.probability for o in measure_modes(state, [0], Bucket())}
        assert abs(probs[((0, 0),)] - 0.55) < 1e-12
        assert abs(probs[((0, 1),)] - 0.45) < 1e-12  # not |0.6 - 0.3|^2 = 0.09


class TestDraw:
    def test_first_cumulative_sum_above_r(self):
        draw = measure._drawer([0.25, 0.0, 0.5, 0.25])
        assert draw(0.0) == 0
        assert draw(0.2499) == 0
        assert draw(0.25) == 2  # zero-weight branch never drawn
        assert draw(0.7499) == 2
        assert draw(0.75) == 3

    @pytest.mark.parametrize("r", [0.9, 0.9 + 1e-12, 1.5])
    def test_draw_at_or_above_last_sum_returns_last_branch(self, r):
        assert measure._drawer([0.3, 0.6])(r) == 1

    def test_matches_left_to_right_loop(self, rng):
        for _ in range(500):
            weights = list(rng.dirichlet(np.ones(rng.integers(1, 8))))
            r = rng.random()
            acc, expected = 0.0, len(weights) - 1
            for i, w in enumerate(weights):
                acc += w
                if r < acc:
                    expected = i
                    break
            assert measure._drawer(weights)(r) == expected


def _groups(records):
    """The kept amplitudes of every group of a ``measure._Records``."""
    return [records.block(row) for row in records.rows]


def _record_bits(records):
    """The records of ``measure_modes``, a ``measure._Records``:
    the post-state's mode count and the measured modes, then per group its
    counts, every float by ``float.hex`` and its kept amplitudes in their
    dict order."""
    return [records.modes, list(records.measured)] + [
        (counts, p.hex(), [(rest, a.real.hex(), a.imag.hex()) for rest, a in group.items()],
         weight.hex())
        for counts, p, group, weight in zip(map(tuple, records.counts.tolist()), records.p,
                                            _groups(records), records.weight)]


def _batched(states, u, modes):
    return list(measure._evolved_groups(states, u, modes))


def _one_by_one(states, u, modes):
    return [measure_modes(optics.apply_unitary(s, u, modes), modes) for s in states]


#: a balanced splitter whose |1,1> output cancels to an exact zero
HOM = optics.ModeUnitary([[INV_SQRT2, -INV_SQRT2], [INV_SQRT2, INV_SQRT2]])


#: a part of an amplitude: signed zeros among the floats in [-1, 1]
PART = st.sampled_from([0.0, -0.0]) | st.floats(-1, 1)


@st.composite
def state_batches(draw):
    """1-4 states on the same 2-5 modes, the modes to evolve and measure
    (every mode, at times), and a seeded random unitary on them."""
    modes = draw(st.integers(2, 5))
    measured = draw(st.lists(st.integers(0, modes - 1), min_size=1, max_size=min(modes, 3),
                             unique=True))
    part = PART | st.sampled_from([1e-13])
    states = []
    for _ in range(draw(st.integers(1, 4))):
        occs = draw(st.lists(st.tuples(*[st.integers(0, 2)] * modes), min_size=1, max_size=6,
                             unique=True))
        amps = {occ: complex(draw(part), draw(part)) for occ in occs}
        if any(amps.values()):
            states.append(FockState(modes, amps))
    u = optics.random_unitary(len(measured), np.random.default_rng(draw(st.integers(0, 99))))
    return [s for s in states if s.term_count()] or [number_state((1,) * modes)], u, measured


class TestEvolvedGroups:
    """One array pass over many states gives each state's records of
    ``measure_modes(apply_unitary(state, u, modes), modes)``."""

    @settings(max_examples=80, deadline=None)
    @given(state_batches(), st.data())
    def test_batched_records_equal_the_per_state_records(self, batch, data):
        states, u, modes = batch
        try:
            expected = [_record_bits(r) for r in _one_by_one(states, u, modes)]
        except fock.FockError as exc:  # a norm that underflows to zero
            with pytest.raises(type(exc), match=str(exc)):
                _batched(states, u, modes)
            return
        for _ in range(2):  # a pass's plan is built, then stored
            assert [_record_bits(r) for r in _batched(states, u, modes)] == expected
        # other amplitudes on the same occupations, evaluated through the stored plans
        redrawn = [FockState(s.modes, {occ: complex(data.draw(st.floats(0.5, 1)), data.draw(PART))
                                       for occ, _ in s.terms()}) for s in states]
        expected = [_record_bits(r) for r in _one_by_one(redrawn, u, modes)]
        with mock.patch.object(measure, "_pass_plan", wraps=measure._pass_plan) as built:
            assert [_record_bits(r) for r in _batched(redrawn, u, modes)] == expected
        assert not built.called

    def test_zeros_prunes_and_an_impossible_group(self, empty_rows, pass_counts):
        cancels = FockState(3, {(1, 1, 0): 0.6, (1, 0, 1): complex(-0.0, 0.8),
                                (0, 1, 2): 1e-13, (0, 2, 1): complex(0.3, -0.0)}, tol=0)
        # the (0, 0) group's one amplitude passes the prune, but its square underflows
        underflow = FockState(3, {(1, 0, 0): 1e-150, (0, 0, 3): 1.5e-162})
        states = [cancels, underflow, cancels]
        expected = _one_by_one(states, HOM, [0, 1])
        got = _batched(states, HOM, [0, 1])
        assert [_record_bits(r) for r in got] == [_record_bits(r) for r in expected]
        evolved = optics.apply_unitary(cancels, HOM, [0, 1])
        assert evolved.amplitude((1, 1, 0)) == 0  # cancelled
        assert all(rest != (2,) for group in _groups(expected[0]) for rest in group)
        patterns = {occ[:2] for occ, _ in optics.apply_unitary(underflow, HOM, [0, 1]).terms()}
        assert len(patterns) == 3
        assert expected[1].counts.tolist() == [[0, 1], [1, 0]]  # (0, 0) is impossible
        # a squared norm that underflows: the pass is redone state by state
        with pytest.raises(fock.ZeroStateError, match="cannot measure a zero state"):
            _batched([cancels, FockState(3, {(1, 0, 0): 1e-200})], HOM, [0, 1])
        pass_counts()

        # a warm plan, evaluated on cancellations other than those it was
        # built on: (1, 0, 1) and (0, 1, 1) reach the outputs (1, 0) and
        # (0, 1) of the splitter together, so equal amplitudes cancel the
        # first, opposite ones the second, others neither
        def pair(a, b):
            return FockState(3, {(1, 0, 1): a, (0, 1, 1): b, (1, 1, 0): 0.6, (0, 0, 2): 0.3j})

        built_on = [pair(0.5, 0.5), pair(0.5, 0.5j)]
        for run, states in enumerate([built_on, built_on, [pair(0.5, -0.5), pair(0.5, 0.5)],
                                      [pair(0.4j, 0.5), pair(-0.5, 0.5)]]):
            expected = [_record_bits(r) for r in _one_by_one(states, HOM, [0, 1])]
            assert [_record_bits(r) for r in _batched(states, HOM, [0, 1])] == expected
            # one pass each time: its plan built twice, then read
            assert pass_counts() == (1, 1 if run < 2 else 0)
        cancelled = [{occ for occ, _ in optics.apply_unitary(pair(a, b), HOM, [0, 1]).terms()}
                     for a, b in ((0.5, 0.5), (0.5, -0.5))]
        assert (1, 0, 1) not in cancelled[0] and (0, 1, 1) in cancelled[0]
        assert (0, 1, 1) not in cancelled[1] and (1, 0, 1) in cancelled[1]

    def test_a_warm_exact_teleportation_builds_no_plan(self, empty_rows, pass_counts,
                                                        monkeypatch):
        # n = 4 stays below the array route's bound; the bound lowered, it takes a pass
        monkeypatch.setattr(optics, "ARRAY_MIN_TERMS", 1)
        inputs = [costs.encode_single_rail(a, b)
                  for a, b in ((0.6, 0.8), (0.8, -0.6j), (0.28, 0.96j))]
        for state in inputs[:2]:
            protocols.teleport_tn(state, 0, 4)
        assert pass_counts() == (2, 2)
        warm = protocols.teleport_tn(inputs[2], 0, 4)
        assert pass_counts() == (1, 0)
        empty_rows()
        cold = protocols.teleport_tn(inputs[2], 0, 4)
        assert pass_counts() == (1, 1)
        assert [_branch_bits(b) for b in warm.details["branches"]] == [
            _branch_bits(b) for b in cold.details["branches"]]

    def test_passes_split_at_the_cap(self, monkeypatch):
        states = [FockState(4, {(1, k % 2, 1, 0): 0.6, (0, 1, k % 3, 1): 0.8j}) for k in range(7)]
        u = optics.random_unitary(3, np.random.default_rng(4))
        passes = []
        run = measure._pass_groups
        monkeypatch.setattr(measure, "_pass_groups", lambda *a: passes.append(1) or run(*a))
        monkeypatch.setattr(measure, "_PASS_TERMS", 25)
        got = _batched(states, u, [0, 1, 2])
        assert len(passes) > 1
        expected = _one_by_one(states, u, [0, 1, 2])
        assert [_record_bits(r) for r in got] == [_record_bits(r) for r in expected]

    def test_a_zero_in_a_filled_column_goes_state_by_state(self, monkeypatch):
        # column 1 holds an exact zero, which the array route cannot take
        u = optics.ModeUnitary([[3**-0.5, 2**-0.5, 6**-0.5], [3**-0.5, -(2**-0.5), 6**-0.5],
                                [3**-0.5, -0.0, -2 * 6**-0.5]])
        clear = [FockState(4, {(k, 0, 0, 1): 0.6, (k + 1, 0, 0, 0): 0.8j}) for k in range(3)]
        filled = clear[:1] + [FockState(4, {(1, 1, 0, 1): 0.6, (2, 0, 0, 1): 0.8j})]
        for states, per_state in ((clear, 0), (filled, 2)):
            expected = _one_by_one(states, u, [0, 1, 2])
            alone = []
            measure_one = measure.measure_modes
            monkeypatch.setattr(measure, "measure_modes",
                                lambda *a, **k: alone.append(1) or measure_one(*a, **k))
            got = _batched(states, u, [0, 1, 2])
            monkeypatch.undo()
            assert len(alone) == per_state
            assert [_record_bits(r) for r in got] == [_record_bits(r) for r in expected]

    def test_wide_kept_counts_share_a_pass(self, monkeypatch):
        def state(kept):
            return FockState(3, {(1, 0, kept): 0.6, (0, 1, kept): 0.8j})

        # kept counts up to 2**61 index a sorted table of kept occupations:
        # the states share one pass
        states = [state(2**58), state(2**58 + 1), state(3), state(2**61), state(2**58)]
        passes = []
        run = measure._pass_groups
        monkeypatch.setattr(measure, "_pass_groups", lambda *a: passes.append(len(a[0])) or run(*a))
        alone = []
        measure_one = measure.measure_modes
        monkeypatch.setattr(measure, "measure_modes",
                            lambda *a, **k: alone.append(1) or measure_one(*a, **k))
        expected = _one_by_one(states, HOM, [0, 1])
        passes.clear(), alone.clear()
        got = _batched(states, HOM, [0, 1])
        assert (passes, len(alone)) == ([5], 0)
        assert [_record_bits(r) for r in got] == [_record_bits(r) for r in expected]

    def test_budget_applies_to_each_state(self, monkeypatch):
        monkeypatch.setattr(optics, "MAX_EVOLVED_TERMS", 27)
        u = optics.fourier_matrix(2)
        small = FockState(4, {(1, 1, 0, 1): 1.0})  # bound C(4, 2) = 6
        large = FockState(4, {(2, 1, 1, 0): 1.0})  # bound C(6, 2) = 15
        assert len(_batched([small, small, large], u, [0, 1, 2])) == 3  # 27, at the limit
        passes = []
        run = measure._pass_groups
        monkeypatch.setattr(measure, "_pass_groups", lambda *a: passes.append(1) or run(*a))
        # one state past the limit: the per-state message, as apply_unitary gives it
        with pytest.raises(optics.BudgetExceeded, match="the evolution may produce 28 terms"):
            _batched([small, FockState(4, {(3, 2, 1, 0): 1.0})], u, [0, 1, 2])
        # each state within it, their sum past it: refused before the first pass
        with pytest.raises(optics.BudgetExceeded,
                           match="the evolutions of 4 states may produce 33 terms"):
            _batched([small, small, large, small], u, [0, 1, 2])
        assert passes == []

    def test_a_lone_state_takes_the_pass_from_the_array_route_bound(self, monkeypatch):
        u = optics.fourier_matrix(7)
        modes = list(range(8))
        below, at = _bounded_state(4095), _bounded_state(4096)
        assert [optics._bound([occ[:8] for occ, _ in s.terms()], 8) for s in (below, at)] == [
            optics.ARRAY_MIN_TERMS - 1, optics.ARRAY_MIN_TERMS]
        passes = []
        run = measure._pass_groups
        monkeypatch.setattr(measure, "_pass_groups", lambda *a: passes.append(1) or run(*a))
        alone = []
        measure_one = measure.measure_modes
        monkeypatch.setattr(measure, "measure_modes",
                            lambda *a, **k: alone.append(1) or measure_one(*a, **k))
        for state, expected in ((below, ([], [1])), (at, ([1], []))):
            passes.clear(), alone.clear()
            got = _batched([state], u, modes)
            assert (passes, alone) == expected
            assert [_record_bits(r) for r in got] == [
                _record_bits(r) for r in _one_by_one([state], u, modes)]


def _terms_bits(terms):
    """The stacked terms of a ``measure._Terms``, state by state, as
    ``(occupation, float.hex of re, float.hex of im)``."""
    modes, occ, re, im, starts, _ = terms
    return [modes] + [[(tuple(occ[k].tolist()), re[k].hex(), im[k].hex()) for k in range(a, b)]
                      for a, b in zip(starts, starts[1:])]


def _projections(records, indices):
    """The old route of a stage's hand-off: each branch projected into a state."""
    return [measure._projection(records.modes, records.block(records.rows[i]), records.weight[i])
            for i in indices]


class TestHandOff:
    """A teleported gate hands its stage-1 successes to the stage-2 pass as
    arrays (``measure._projected``), with the bits of the projected states."""

    @settings(max_examples=60, deadline=None)
    @given(state_batches(), st.booleans())
    def test_projected_terms_equal_the_projected_states(self, batch, pass_records):
        states, u, modes = batch
        # the records of a pass hold a _Block; those of measure_modes, dicts
        cut = 1 if pass_records else optics.MAX_EVOLVED_TERMS + 1
        try:
            with mock.patch.object(optics, "ARRAY_MIN_TERMS", cut):
                records = next(measure._evolved_groups(states[:1], u, modes))
        except fock.FockError:  # a norm that underflows to zero
            return
        event(type(records.block).__name__)
        indices = list(range(len(records)))[::-2]  # some rows, in any order
        expected = measure._Terms.of(_projections(records, indices))
        assert _terms_bits(measure._projected(records, indices)) == _terms_bits(expected)

    def test_counts_past_int64_are_refused(self, pass_counts):
        with pytest.raises(fock.InvalidOccupationError, match=r"count past 2\^63 - 1"):
            FockState(3, {(1, 0, 2**70): 0.6, (0, 1, 2**70): 0.8j})
        small = FockState(3, {(1, 0, 1): 0.6, (0, 1, 2): 0.8j})
        # evolved counts whose total passes int64: over the budget, as
        # apply_unitary finds, before any pass and before an int64 sum wraps
        with pytest.raises(optics.BudgetExceeded, match="may produce 9223372036854775809 terms"):
            _batched([small, FockState(3, {(2**62, 2**62, 1): 1.0})], HOM, [0, 1])
        # one evolved mode: an output bound of 1, past 300 photons all the same
        with pytest.raises(optics.BudgetExceeded, match=f"{2**62} photons in one occupation"):
            _batched([small, FockState(3, {(0, 2**62, 1): 1.0})], optics.ModeUnitary([[1j]]), [1])
        assert pass_counts() == (0, 0)

    GATES = [("csign", n) for n in range(1, 5)] + [("parity", 2), ("parity", 3)]

    @pytest.mark.parametrize("gate, n", GATES)
    @pytest.mark.parametrize("stage1", ["dicts", "arrays", "pass"])
    @pytest.mark.parametrize("pass_terms", [measure._PASS_TERMS, 500])
    def test_stage_two_records_equal_the_projected_route(self, monkeypatch, gate, n, stage1,
                                                         pass_terms):
        # stage 1 grouped by the dict loop, on arrays or by a pass: the last two hold a _Block
        monkeypatch.setattr(measure, "ARRAY_MIN_GROUP_TERMS", 1 if stage1 == "arrays" else 1 << 62)
        if stage1 == "pass":
            monkeypatch.setattr(optics, "ARRAY_MIN_TERMS", 1)
        monkeypatch.setattr(measure, "_PASS_TERMS", pass_terms)
        seen = []
        project, evolve = measure._projected, measure._evolved_groups
        monkeypatch.setattr(measure, "_projected",
                            lambda records, indices: seen.append((records, indices))
                            or project(records, indices))
        monkeypatch.setattr(measure, "_evolved_groups",
                            lambda states, u, modes: seen.append((states, u, modes))
                            or iter(list(evolve(states, u, modes))))
        rng = np.random.default_rng(n)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        if gate == "csign":
            pair = tensor(protocols.encode_qubit(*amps[:2] / np.linalg.norm(amps[:2])),
                          protocols.encode_qubit(*amps[2:] / np.linalg.norm(amps[2:])))
            res = protocols.csign_teleported(pair, protocols.BosonicQubit(0, 1),
                                             protocols.BosonicQubit(2, 3), n)
        else:
            state = FockState(2, {(0, 1): amps[0], (1, 0): amps[1]})
            res = protocols.parity_measure(state, 0, 1, n)
        (records, indices), (_, u, modes) = seen[-2:]
        assert isinstance(records.block, measure._Groups if stage1 == "dicts" else measure._Block)
        seconds = list(res.details["branches"])
        old = list(evolve(_projections(records, indices), u, modes))
        assert [_record_bits(r) for r in evolve(project(records, indices), u, modes)] == [
            _record_bits(r) for r in old]
        # the tree's stage-2 columns are those records'
        stage2 = [b for b in seconds if "pattern2" in b]
        assert [(b["pattern2"], b["p2"].hex()) for b in stage2] == [
            (tuple(c), p.hex()) for r in old for c, p in zip(r.counts.tolist(), r.p)]

    def test_no_stage_one_success_is_projected(self, monkeypatch):
        made = []
        project = measure._projection
        for owner in (measure, protocols):
            monkeypatch.setattr(owner, "_projection",
                                lambda modes, *a: made.append(modes) or project(modes, *a))
        pair = tensor(protocols.encode_qubit(0.6, 0.8), protocols.encode_qubit(0.8j, 0.6))
        res = protocols.csign_teleported(pair, protocols.BosonicQubit(0, 1),
                                         protocols.BosonicQubit(2, 3), 4)
        # the landed branch alone, on the modes left after both detections
        assert made == [res.output_state.modes] == [4 + 16 - 10]


def _bounded_state(bound):
    """A state on 9 modes whose evolution on modes 0-7 has the output bound
    4,095 or 4,096: five terms of 5 photons there (C(12, 7) = 792 each), one
    of 3 (120) and one of 1 (8), then seven photonless terms (1 each) or
    one more of 1 photon."""
    occs = [tuple(4 * (i == 0) + (i == j) for i in range(8)) + (1,) for j in range(5)]
    occs += [(3,) + (0,) * 7 + (1,), (1,) + (0,) * 7 + (1,)]
    occs += {4095: [(0,) * 8 + (k,) for k in range(7)], 4096: [(0, 1) + (0,) * 6 + (1,)]}[bound]
    return FockState(9, {occ: complex(1, k) for k, occ in enumerate(occs)})


def _detect_records(work, u, modes):
    """The ``measure._Records`` an exact ``protocols._detect`` behind ``u``
    classifies."""
    seen = []
    classified = protocols._classified
    protocols._classified = lambda records, *rest: seen.append(records) or classified(records, *rest)
    try:
        protocols._detect(work, modes, lambda counts, p, state: (None, None), None, u)
    finally:
        protocols._classified = classified
    (records,) = seen
    return records


@st.composite
def lone_detections(draw):
    """One state on 9 modes whose first 8 a seeded random unitary evolves:
    up to 14 terms of 5 photons there, each of output bound 792, so a bound
    on both sides of ``optics.ARRAY_MIN_TERMS`` (about half the draws reach
    it, some terms drawing zero amplitudes). A term may be tiny: its
    outputs, alone in their kept occupation or not, fall just below the
    cutoff of ``fock.DEFAULT_TOL`` times the norm, or just past it."""
    part = st.sampled_from([0.0, -0.0]) | st.floats(-1, 1)
    tiny = st.sampled_from([0.0, 5e-13, -1e-12, 2e-12, -4e-12])
    amps = {}
    for _ in range(draw(st.sampled_from(range(3, 15)))):
        photons = draw(st.lists(st.integers(0, 7), min_size=5, max_size=5))
        occ = tuple(photons.count(m) for m in range(8)) + (draw(st.integers(0, 1)),)
        scale = draw(st.sampled_from([part, part, tiny]))
        amps[occ] = complex(draw(scale), draw(scale))
    if not any(amps.values()):
        amps[occ] = 1.0
    u = optics.random_unitary(8, np.random.default_rng(draw(st.integers(0, 99))))
    return FockState(9, amps), u


@settings(max_examples=30, deadline=None)
@given(lone_detections())
@example((_bounded_state(4095), optics.fourier_matrix(7)))  # per state
@example((_bounded_state(4096), optics.fourier_matrix(7)))  # one pass
def test_exact_detection_records_equal_the_per_state_records(detection):
    work, u = detection
    modes = list(range(8))
    bound = optics._bound([occ[:8] for occ, _ in work.terms()], 8)
    event("one pass" if bound >= optics.ARRAY_MIN_TERMS else "per state")
    try:
        expected = measure_modes(optics.apply_unitary(work, u, modes), modes)
    except fock.FockError as exc:  # a norm that underflows to zero
        with pytest.raises(type(exc), match=str(exc)):
            _detect_records(work, u, modes)
        return
    assert _record_bits(_detect_records(work, u, modes)) == _record_bits(expected)


def test_a_lone_pass_prunes_terms_just_below_the_cutoff():
    # the one-pass state and a tiny term alone in its kept occupation: its 792
    # outputs, 5.5e-12 to 6.1e-11, straddle the cutoff of about 1.2e-11
    work = _bounded_state(4096)
    work = FockState(9, {**work._amp, (5,) + (0,) * 7 + (2,): 1e-9 + 0j})
    u, modes = optics.fourier_matrix(7), list(range(8))
    expected = measure_modes(optics.apply_unitary(work, u, modes), modes)
    tiny = [abs(a) for group in _groups(expected) for rest, a in group.items() if rest == (2,)]
    assert 0 < len(tiny) < 792 and min(tiny) < 1.5 * fock.DEFAULT_TOL * work.norm()
    with mock.patch.object(measure, "_pass_groups", wraps=measure._pass_groups) as passes:
        assert _record_bits(_detect_records(work, u, modes)) == _record_bits(expected)
    assert [len(call.args[0]) for call in passes.call_args_list] == [1]


def _phase_classify(pattern, k, s):
    """A classify that reads all three arguments, as teleport_tn's does."""
    corrections = [("phase", 0, (0.7 * s) % (2 * math.pi))] if k % 2 else []
    return {"k": k, "ok": k % 2 == 1, "corrections": corrections}


def _phase_columns(counts, p, state):
    """``_phase_classify`` as a stage's classifier (``protocols._classified``),
    k and s summed row by row."""
    ks = [sum(row) for row in counts.tolist()]
    ss = [sum(j * r for j, r in enumerate(row)) for row in counts.tolist()]

    def branch(i, pattern):
        fields = _phase_classify(pattern, ks[i], ss[i])
        return {"pattern": pattern, "p": p[i], **fields, "state": state(i, fields["corrections"])}

    return [k % 2 == 1 for k in ks], branch


def _branch_bits(branch):
    """Every field of a branch, keys in order: floats by ``float.hex``, the
    state by the ``float.hex`` of its amplitudes, anything else by ``repr``."""
    def bits(value):
        if type(value) is float:
            return value.hex()
        if isinstance(value, FockState):
            return [value.modes] + [(occ, a.real.hex(), a.imag.hex()) for occ, a in value.terms()]
        return repr(value)

    return [(key, bits(value)) for key, value in branch.items()]


def _per_pattern_branches(work, u, modes, classify):
    """The branches of ``protocols._detect`` as a per-pattern loop over the
    outcomes of ``measure_modes(apply_unitary(...))`` gives them, with k and
    s summed pattern by pattern."""
    branches = []
    for outcome in measure_modes(optics.apply_unitary(work, u, modes), modes):
        counts = tuple(c for _, c in outcome.outcome)
        k, s = sum(counts), sum(j * r for j, r in enumerate(counts))
        branch = {"pattern": counts, "p": outcome.probability, **classify(counts, k, s)}
        branch["state"] = measure._corrected(outcome.post_state, branch.get("corrections", []))
        branches.append(branch)
    return branches


@settings(max_examples=30, deadline=None)
@given(lone_detections())
@example((_bounded_state(4095), optics.fourier_matrix(7)))  # per state
@example((_bounded_state(4096), optics.fourier_matrix(7)))  # one pass
def test_exact_detection_branches_equal_the_per_pattern_classify(detection):
    work, u = detection
    modes = list(range(8))
    bound = optics._bound([occ[:8] for occ, _ in work.terms()], 8)
    event("one pass" if bound >= optics.ARRAY_MIN_TERMS else "per state")
    try:
        expected = _per_pattern_branches(work, u, modes, _phase_classify)
    except fock.FockError as exc:  # a norm that underflows to zero
        with pytest.raises(type(exc), match=str(exc)):
            protocols._detect(work, modes, _phase_columns, None, u)
        return
    got = protocols._detect(work, modes, _phase_columns, None, u)
    assert [_branch_bits(b) for b in got] == [_branch_bits(b) for b in expected]


def test_group_weights_add_left_to_right_as_the_pass_adds():
    # one group whose squares are 1.0, 1e-16 and 1e-16 in dict order: left
    # to right (np.bincount) they add to 1.0, a compensated sum (the builtin
    # sum of floats from Python 3.12 on) gives 1.0000000000000002
    state = FockState(4, {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): 1e-8, (0, 0, 1, 1): 1e-8})
    u = optics.ModeUnitary(np.eye(1))
    dicts, passed = _one_by_one([state, state], u, [0]), _batched([state, state], u, [0])
    assert passed[0].weight == dicts[0].weight == [1.0]
    assert [_record_bits(r) for r in passed] == [_record_bits(r) for r in dicts]
    assert state.norm() == 1.0
    assert postselect(state, [0], [0]).probability == 1.0
    assert [b["p"] for b in protocols.parity_project_ideal(state, 0, 1)] == [1.0]


@st.composite
def groupings(draw):
    """A state, the modes it measures, in any order, and a detector model:
    Counter on 1-3,000 terms of up to 20 modes, or a fan-out onto 1-4
    detectors of up to two of up to 8 modes on up to 200 terms (the
    fan-out multiplies them). Amplitude parts hold signed zeros; one kept
    mode's counts reach up to a drawn ceiling (the byte range, 2^31 or
    2^62)."""
    model = draw(st.just(Counter()) | st.builds(FanoutCounter, st.integers(1, 4)))
    fanout = isinstance(model, FanoutCounter)
    modes = draw(st.integers(1, 8 if fanout else 20))
    order = draw(st.permutations(range(modes)))
    measured = order[:draw(st.integers(1, min(modes, 2) if fanout else modes))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(rng.integers(1, 200 if fanout else 3000, endpoint=True))
    occs = rng.integers(0, 3, (size, modes)).tolist()
    kept = order[len(measured):]
    if kept:
        ceiling = draw(st.sampled_from([2, 255, 256, 2**31, 2**62]))
        for occ in occs:
            occ[kept[0]] = int(rng.integers(0, ceiling, endpoint=True))
    parts = [rng.normal(size=size) for _ in range(2)]
    for part in parts:
        part[rng.random(size) < 0.1] = 0.0
        part[rng.random(size) < 0.1] = -0.0
    amps = {tuple(occ): complex(a, b) for occ, a, b in zip(occs, *parts)}
    return FockState(modes, amps), measured, model


def _grouped(cut, state, measured, model):
    """With the array cut at ``cut``: the type of the records' block, then
    their bits, the dict order and bits of some of their post-states, and
    the bits of those post-states handed over as arrays (``_projected``, for
    Counter records, which alone reach it, the indices in a shuffled order);
    or the error raised, by type and message."""
    with mock.patch.object(measure, "ARRAY_MIN_GROUP_TERMS", cut):
        try:
            records = measure_modes(state, measured, model)
        except fock.FockError as exc:
            return None, type(exc), str(exc)
    shown = list(range(0, len(records), max(1, len(records) // 40)))
    handed = np.random.default_rng(len(records)).permutation(shown).tolist()
    return (type(records.block).__name__, records.counts.dtype, _record_bits(records),
            [(o.outcome, o.probability.hex(), _state_bits(o.post_state))
             for o in map(records.__getitem__, shown)],
            isinstance(model, Counter) and _terms_bits(measure._projected(records, handed)))


def _state_bits(state):
    """A state's terms in its dict order, every float by ``float.hex``."""
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state._amp.items()]


class TestArrayGroups:
    """A state of ``measure.ARRAY_MIN_GROUP_TERMS`` terms or more is grouped
    on arrays, bit for bit as the dict loop groups it."""

    @settings(max_examples=60, deadline=None)
    @given(groupings())
    @example((FockState(3, {}), [2, 0], Counter()))
    @example((FockState(3, {}), [1], FanoutCounter(3)))
    @example((FockState(2, {(1, 0): 1.0, (2, 0): -1.0}), [0], FanoutCounter(1)))  # cancels
    @example((FockState(3, {(1, 0, 0): 0.6, (0, 1, 2**62): 0.8j}), [0, 1], FanoutCounter(2)))
    def test_forced_arrays_equal_the_dict_loop(self, grouping):
        model = grouping[2]
        arrays, dicts = _grouped(0, *grouping), _grouped(1 << 62, *grouping)
        assert arrays[1:] == dicts[1:]
        event(f"error {dicts[1].__name__}" if dicts[0] is None else type(model).__name__)
        if dicts[0] is not None:
            assert (arrays[0], dicts[0]) == ("_Block", "_Groups")

    def test_the_largest_count_takes_every_array_route(self, monkeypatch):
        # 2^63 - 1 in a kept mode: grouped, evolved and passed on arrays with
        # the bits of the dict routes
        top = 2**63 - 1
        state = FockState(4, {(1, 0, 2, top): 0.6, (0, 1, 1, top - 1): 0.8j, (2, 0, 0, 7): 0.1})
        for model in (Counter(), FanoutCounter(2)):
            assert _grouped(0, state, [0, 1], model)[1:] == _grouped(1 << 62, state, [0, 1], model)[1:]
        states, u = [state, FockState(4, {(1, 0, 0, top): 1.0})], optics.fourier_matrix(2)
        expected = [_record_bits(r) for r in _one_by_one(states, u, [0, 1, 2])]
        assert [_record_bits(r) for r in _batched(states, u, [0, 1, 2])] == expected
        monkeypatch.setattr(optics, "ARRAY_MIN_TERMS", 1)
        assert [_record_bits(r) for r in _one_by_one(states, u, [0, 1, 2])] == expected

    def test_the_cut_is_a_term_count(self, monkeypatch):
        loops = []
        dict_groups = measure._dict_groups
        monkeypatch.setattr(measure, "_dict_groups", lambda *a: loops.append(1) or dict_groups(*a))
        cut = measure.ARRAY_MIN_GROUP_TERMS
        state = FockState(2, {(k, 2 * cut - k): 1.0 for k in range(cut - 1)})
        assert isinstance(measure_modes(state, [0]).block, measure._Groups)
        state = FockState(2, {(k, 2 * cut - k): 1.0 for k in range(cut)})
        for records in (measure_modes(state, [0]), measure_modes(state, [1], Bucket())):
            assert isinstance(records.block, measure._Block)
        assert postselect(state, [0], [3]).probability == pytest.approx(1 / len(state._amp))
        assert loops == [1]

    def test_an_exact_teleported_csign_groups_no_state_in_the_dict_loop(self, monkeypatch):
        # stage 1 of n = 4 is one 2,770-term state, grouped on arrays and
        # handed to stage 2 from its block, without a dict round trip
        calls = []
        for owner, name in ((measure, "_dict_groups"), (measure._Groups, "terms")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, original=original, name=name:
                                calls.append(name) or original(*a))
        groupings = []
        groups = measure._groups
        monkeypatch.setattr(measure, "_groups",
                            lambda state, *a: groupings.append(len(state._amp)) or groups(state, *a))
        pair = tensor(protocols.encode_qubit(0.6, 0.8), protocols.encode_qubit(0.8j, 0.6))
        res = protocols.csign_teleported(pair, protocols.BosonicQubit(0, 1),
                                         protocols.BosonicQubit(2, 3), 4)
        assert res.succeeded is not None and groupings == [2770]
        assert calls == []


class TestRecords:
    """``measure_modes`` returns its ``_Records``: ``records[i]`` is made on
    first read and kept, and its post-state, ``records.state(i)``, is
    projected when its terms are first read."""

    @settings(max_examples=60, deadline=None)
    @given(groupings(), st.booleans(), st.booleans(), st.data())
    def test_read_outcomes_equal_the_eager_projection(self, grouping, arrays, bucket, data):
        state, measured, model = grouping
        if bucket and isinstance(model, FanoutCounter):
            model = Bucket()
        with mock.patch.object(measure, "ARRAY_MIN_GROUP_TERMS", 0 if arrays else 1 << 62):
            try:
                records = measure_modes(state, measured, model)
            except fock.FockError:
                return
        assert isinstance(records.block, measure._Block if arrays else measure._Groups)
        event(f"{type(model).__name__} on {type(records.block).__name__}")
        i = data.draw(st.integers(0, len(records) - 1))
        outcome = records[i]
        assert records[i] is outcome and records[i - len(records)] is outcome
        assert outcome.outcome == tuple(zip(records.measured, records.counts[i].tolist()))
        assert outcome.probability.hex() == records.p[i].hex()
        eager = measure._projection(records.modes, records.block(records.rows[i]),
                                    records.weight.item(i))
        assert _state_bits(outcome.post_state) == _state_bits(eager)
        fixes = [("phase", 0, 0.7), ("swap", 0, records.modes - 1)] if records.modes else []
        assert _state_bits(records.state(i, fixes)) == _state_bits(measure._corrected(eager, fixes))

    @settings(max_examples=40, deadline=None)
    @given(groupings(), st.booleans())
    def test_a_group_weighs_what_its_dict_weighs(self, grouping, arrays):
        # a branch's post-state takes its weight from the dict it decodes
        state, measured, model = grouping
        with mock.patch.object(measure, "ARRAY_MIN_GROUP_TERMS", 0 if arrays else 1 << 62):
            try:
                records = measure_modes(state, measured, model)
            except fock.FockError:
                return
        assert [fock._squared_norm(group.values()).hex() for group in _groups(records)] == \
            [weight.hex() for weight in records.weight.tolist()]

    @settings(max_examples=40, deadline=None)
    @given(state_batches())
    def test_a_pass_group_weighs_what_its_dict_weighs(self, batch):
        try:
            passed = _batched(*batch)
        except fock.FockError:
            return
        for records in passed:
            assert [fock._squared_norm(group.values()).hex() for group in _groups(records)] == \
                [weight.hex() for weight in records.weight.tolist()]

    def test_no_state_is_projected_until_a_post_state_is_read(self, monkeypatch):
        calls = []
        projection = measure._projection
        monkeypatch.setattr(measure, "_projection", lambda *a: calls.append(1) or projection(*a))
        state = FockState(2, {(k, 9 - k): complex(1, k) for k in range(10)})
        records = measure_modes(state, [0])
        outcomes = list(records)
        assert len(outcomes) == 10 and sum(o.probability for o in outcomes) == pytest.approx(1)
        assert calls == []
        read = outcomes[3].post_state
        assert dict(read.terms()) == {(6,): pytest.approx(complex(1, 3) / abs(complex(1, 3)))}
        read.norm()
        assert records[3].post_state is read and calls == [1]
