import json
import math

import pytest

from fockworks.costs import (
    CostModel,
    TrialStats,
    cost_model,
    expected_trials,
    make_trial,
    monte_carlo,
    s_recursion_table,
    trial_stats_csv,
)


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

    def test_stats_csv(self):
        rows = trial_stats_csv([TrialStats(10, 5), TrialStats(4, 1)]).strip().splitlines()
        assert rows[0] == "trials,successes,rate,ci95"
        assert rows[1].startswith("10,5,0.5,")

    def test_unknown_protocol(self):
        from fockworks.protocols import ProtocolError

        with pytest.raises(ProtocolError):
            make_trial("warp-drive")


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

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            s_recursion_table(10, c1=0.0)
