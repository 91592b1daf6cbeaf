import json
import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockworks import costs, measure, protocols
from fockworks.costs import (
    CostModel,
    TrialStats,
    cost_model,
    expected_trials,
    make_trial,
    monte_carlo,
    s_recursion_table,
    trial_from,
    trial_stats_csv,
)
from fockworks.fock import BudgetExceeded


class TestExpectedTrials:
    def test_one_sixteenth(self):
        assert expected_trials(1 / 16) == 16

    def test_certainty(self):
        assert expected_trials(1.0) == 1

    def test_quarter(self):
        assert expected_trials(0.25) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            expected_trials(0.0)


class TestCostModel:
    def test_ns1_counts(self):
        model = cost_model("ns1")
        assert model.success_probability == 0.25
        assert model.photons == 1 and model.detectors == 2
        assert model.elements > 0
        assert model.expected_cost()["expected_trials"] == 4

    def test_csign_expected_photons(self):
        model = cost_model("csign_ns")
        assert model.expected_cost()["photons"] == 2 * 16

    def test_teleport_scales_with_n(self):
        small, large = cost_model("teleport", n=1), cost_model("teleport", n=3)
        assert large.detectors == 4 and small.detectors == 2
        assert abs(large.success_probability - 0.75) < 1e-12

    def test_a_teleport_multiport_past_the_budget_is_refused_before_it_is_built(self, empty_rows,
                                                                                 monkeypatch):
        # (n + 1)^2 entries: n = 1414 and beyond pass the budget and are
        # refused by fourier_matrix without building; with a limit of 16,
        # n = 3 builds its 16 entries and n = 4 is refused
        built, held = [], costs.optics.kernels.held
        monkeypatch.setattr(costs.optics.kernels, "held",
                            lambda key, make: built.append(key) or held(key, make))
        for n in (1414, 10**6, 2**62):
            with pytest.raises(BudgetExceeded, match=f"^a Fourier multiport of {n + 1} ports has "
                                                      f"{(n + 1) ** 2} entries"):
                cost_model("teleport", n)
        monkeypatch.setattr(costs.optics, "MAX_EVOLVED_TERMS", 16)
        assert cost_model("teleport", 3).detectors == 4
        with pytest.raises(BudgetExceeded, match="^a Fourier multiport of 5 ports has 25 entries"):
            cost_model("teleport", 4)
        assert built == [("fourier", 3)]

    def test_a_non_integer_teleport_size_is_refused_before_the_multiport_is_built(self):
        with pytest.raises(ValueError, match=r"integer n >= 1, got 2\.5$"):
            cost_model("teleport", 2.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            CostModel("x", 1, 1, 1, 0.0)


class TestMonteCarlo:
    def test_deterministic_per_seed(self):
        trial = make_trial("ns1")
        a = monte_carlo(trial, 2000, seed=42)
        b = monte_carlo(trial, 2000, seed=42)
        assert a.successes == b.successes

    def test_different_seeds_differ(self):
        trial = make_trial("ns1")
        a = monte_carlo(trial, 2000, seed=1)
        b = monte_carlo(trial, 2000, seed=2)
        assert a.successes != b.successes

    def test_rate_within_3_sigma(self):
        trial = make_trial("ns1")
        stats = monte_carlo(trial, 20000, seed=7)
        assert stats.within_3_sigma(0.25)

    def test_teleport_trial_failure_rate(self):
        trial = make_trial("teleport", n=3)
        stats = monte_carlo(trial, 20000, seed=11)
        assert abs(trial.analytic - 0.75) < 1e-10
        assert stats.within_3_sigma(0.75)

    def test_csign_teleported_trial(self):
        trial = make_trial("csign_teleported", n=2)
        assert abs(trial.analytic - 4 / 9) < 1e-10
        assert trial.result.success_probability == trial.analytic
        stats = monte_carlo(trial, 20000, seed=5)
        assert stats.within_3_sigma(4 / 9)

    def test_stats_fields(self):
        stats = TrialStats(trials=100, successes=25)
        assert stats.rate == 0.25
        assert abs(stats.ci95_half_width - 1.96 * math.sqrt(0.25 * 0.75 / 100)) < 1e-12
        data = stats.to_json()
        assert data["trials"] == 100 and data["successes"] == 25

    def test_stats_refuse_impossible_counts(self):
        for trials, successes in [(0, 0), (-1, 0), (10, -1), (10, 11)]:
            with pytest.raises(ValueError, match="trials must be >= 1 and successes in 0..trials"):
                TrialStats(trials, successes)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            monte_carlo(lambda uniforms: uniforms < 0.5, 0, seed=1)

    def test_the_trials_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(costs, "MAX_TRIALS", 5)
        assert monte_carlo(lambda uniforms: uniforms < 0.5, 5, seed=1).trials == 5
        calls = []
        with pytest.raises(BudgetExceeded, match="6 trials requested; the limit is 5"):
            monte_carlo(lambda uniforms: calls.append(1), 6, seed=1)
        assert calls == []

    def test_one_trial_past_the_budget_draws_nothing(self):
        calls = []
        with pytest.raises(BudgetExceeded, match=f"the limit is {costs.MAX_TRIALS}$"):
            monte_carlo(lambda uniforms: calls.append(1), costs.MAX_TRIALS + 1, seed=1)
        assert calls == []

    def test_stats_csv(self):
        rows = trial_stats_csv([TrialStats(10, 5), TrialStats(4, 1)]).strip().splitlines()
        assert rows[0] == "trials,successes,rate,ci95"
        assert rows[1].startswith("10,5,0.5,")

    def test_unknown_protocol(self):
        from fockworks.protocols import ProtocolError

        with pytest.raises(ProtocolError):
            make_trial("warp-drive")


class TestTrialFrom:
    @pytest.mark.parametrize("run", [
        lambda: protocols.prepare_tp_n(1),  # no branch list
        lambda: protocols.combine_tp_to_tprime(1, strategy="ns"),  # ok mass 1, p = 1/16
        lambda: protocols.distribute_entanglement(2),  # conditional acceptance
    ], ids=["no-branches", "heralded-inner-gate", "conditional"])
    def test_refuses_a_result_that_is_not_the_whole_tree(self, run):
        with pytest.raises(protocols.ProtocolError, match="does not support --trials"):
            trial_from(run())


    @pytest.mark.parametrize("name, n", [("csign_ns", 1), ("teleport", 3), ("csign_teleported", 2)])
    def test_run_draw_gives_the_per_branch_flag_at_every_boundary(self, name, n):
        trial = costs.make_trial(name, n)
        branches = trial.result.details["branches"]
        weights = [b["p"] for b in branches]
        sums = list(itertools.accumulate(weights))
        uniforms = [0.0] + [v for s in sums
                            for v in (math.nextafter(s, 0.0), s, math.nextafter(s, 2.0))]
        uniforms = np.concatenate([uniforms, np.random.default_rng(11).random(65536)])
        flags = np.array([b["ok"] for b in branches])
        assert np.array_equal(trial(uniforms), flags[measure._drawer(weights)(uniforms)])

    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=1, max_size=12),
           st.lists(st.floats(0, 2), max_size=20))
    def test_run_draw_selects_the_run_of_the_per_branch_index(self, branches, uniforms):
        weights, ok = zip(*branches)
        ends = [i for i in range(len(ok)) if i + 1 == len(ok) or ok[i] != ok[i + 1]]
        sums = list(itertools.accumulate(weights))
        uniforms = np.array(uniforms + [v for s in sums for v in (math.nextafter(s, 0.0), s)])
        runs = measure._drawer(weights, ends)(uniforms)
        per_branch = measure._drawer(weights)(uniforms)
        # the run that holds the branch: the first whose last index is at or past it
        assert runs.tolist() == [bisect.bisect_left(ends, i) for i in per_branch]


def _scalar_count(trial, trials, seed):
    """Reference Monte Carlo: one scalar draw per uniform of the seed's stream."""
    branches = trial.result.details["branches"]
    draw = measure._drawer([b["p"] for b in branches])
    return sum(branches[draw(float(u))]["ok"] for u in np.random.default_rng(seed).random(trials))


def _recording(trial):
    """``trial`` that also keeps every uniform array it is given."""
    calls = []

    def recorded(uniforms):
        calls.append(uniforms.copy())
        return trial(uniforms)

    return recorded, calls


class TestBatchedDraw:
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8),
           st.lists(st.floats(0, 2), min_size=1, max_size=20))
    def test_array_draw_picks_the_scalar_indices(self, weights, uniforms):
        draw = measure._drawer(weights)
        last_sum = sum(weights)
        uniforms = uniforms + [last_sum, math.nextafter(last_sum, 3.0)]
        got = draw(np.array(uniforms))
        assert got.tolist() == [draw(u) for u in uniforms]

    @pytest.mark.parametrize("trials", [1000, costs._CHUNK, costs._CHUNK + 1000])
    def test_count_equals_a_scalar_loop_over_the_stream(self, trials):
        trial = make_trial("teleport", n=3)
        assert monte_carlo(trial, trials, seed=21).successes == _scalar_count(trial, trials, 21)

    def test_trial_i_takes_the_ith_uniform_of_the_stream(self):
        trial, calls = _recording(make_trial("ns1"))
        monte_carlo(trial, 500, seed=8)
        for i in (0, 1, 257, 499):
            gen = np.random.Generator(np.random.PCG64(8).advance(i))
            assert calls[0][i] == gen.random()

    def test_a_batch_is_a_prefix_of_a_longer_batch(self):
        short, short_calls = _recording(make_trial("csign_ns"))
        long, long_calls = _recording(make_trial("csign_ns"))
        monte_carlo(short, 3000, seed=4)
        monte_carlo(long, 7000, seed=4)
        assert np.array_equal(short_calls[0], long_calls[0][:3000])

    def test_trial_is_called_once_per_chunk(self):
        trials = 2 * costs._CHUNK + 5
        trial, calls = _recording(make_trial("ns1"))
        monte_carlo(trial, trials, seed=3)
        assert len(calls) == math.ceil(trials / costs._CHUNK)
        assert max(len(u) for u in calls) <= costs._CHUNK
        assert sum(len(u) for u in calls) == trials


class TestRecursionTable:
    def test_monotone_nondecreasing(self):
        table = s_recursion_table(50)
        assert all(b >= a for a, b in zip(table.log_s[1:], table.log_s[2:]))

    def test_subexponential_fit_wins(self):
        table = s_recursion_table(400)
        fits = table.fits()
        assert fits["sqrt_n_log_n"] < fits["linear_n"]

    def test_stays_below_naive_model(self):
        table = s_recursion_table(400)
        assert table.log_s[400] < table.log_naive[400]
        assert table.crossover() is not None

    def test_log_ratio_decreases(self):
        table = s_recursion_table(400)
        assert table.log_s[400] / 400 < table.log_s[50] / 50

    def test_csv_and_json_emission(self):
        table = s_recursion_table(10)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,log_s,log_naive"
        assert len(lines) == 11
        data = json.loads(json.dumps(table.to_json()))
        assert data["n_max"] == 10
        assert len(data["log_s"]) == 10

    def test_rejects_a_non_integer_size(self):
        with pytest.raises(ValueError, match=r"integer n_max >= 1 .*got n_max = 2\.5$"):
            s_recursion_table(2.5)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            s_recursion_table(10, c1=0.0)
