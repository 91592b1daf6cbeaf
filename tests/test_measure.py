import math

import numpy as np
import pytest

from fockworks import fock, measure
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


class TestSampling:
    def test_deterministic_state(self):
        out = sample_outcome(number_state((1, 0)), [0, 1], Counter(), seed=3)
        assert out.outcome == ((0, 1), (1, 0))

    def test_same_seed_same_outcome(self):
        a = sample_outcome(bell(), [0], Counter(), seed=11)
        b = sample_outcome(bell(), [0], Counter(), seed=11)
        assert a.outcome == b.outcome

    def test_empirical_frequency(self):
        hits = 0
        trials = 100_000
        rng = np.random.default_rng(99)
        branches = measure_modes(bell(), [0], Counter())
        for _ in range(trials):
            if measure.sample_from_branches(branches, rng).outcome == ((0, 1),):
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
