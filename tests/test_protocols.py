import itertools
import math

import numpy as np
import pytest

from fockworks import costs, fock, protocols, source
from fockworks.fock import FockState, fidelity, number_state, tensor
from fockworks.protocols import (
    BosonicQubit,
    UnsupportedInputError,
    apply_csign_modes,
    apply_ns1,
    cnot_via_csign,
    csign_ideal_modes,
    csign_via_ns,
    encode_qubit,
    hadamard,
    make_resource,
    ns1_network,
    ns1_unitary,
    prepare_b4_prime,
    prepare_tp_n,
    qubit_coherence_weight,
    qubit_rotation,
)

INV_SQRT2 = 1 / math.sqrt(2)
BASIS = [(1, 0), (0, 1)]  # logical |0>, |1> amplitudes


class TestOracleInputs:
    @pytest.mark.parametrize("mode", [4, 9, -2])
    def test_csign_ideal_mode_out_of_range(self, mode):
        state = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.6, 0.8))
        with pytest.raises(fock.ModeIndexError):
            csign_ideal_modes(state, 0, mode)
        with pytest.raises(fock.ModeIndexError):
            apply_csign_modes(state, mode, 2, strategy="ideal")

    def test_ideal_parity_of_a_zero_state(self):
        with pytest.raises(fock.ZeroStateError):
            protocols.parity_project_ideal(FockState(2, {}), 0, 1)


class TestQubitEncoding:
    def test_logical_zero(self):
        assert encode_qubit(1, 0).amplitude((0, 1)) == 1

    def test_logical_one(self):
        assert encode_qubit(0, 1).amplitude((1, 0)) == 1

    def test_plus_state(self):
        s = encode_qubit(INV_SQRT2, INV_SQRT2)
        assert abs(s.amplitude((0, 1)) - INV_SQRT2) < 1e-12
        assert abs(s.amplitude((1, 0)) - INV_SQRT2) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(UnsupportedInputError):
            encode_qubit(1, 1)

    def test_coherence_weight(self):
        good = encode_qubit(0.6, 0.8)
        assert abs(qubit_coherence_weight(good, BosonicQubit(0, 1)) - 1) < 1e-12
        leaked = FockState(2, {(0, 1): 0.6, (2, 0): 0.8})
        assert qubit_coherence_weight(leaked, BosonicQubit(0, 1)) < 0.5


class TestSingleQubitGates:
    def test_hadamard_on_zero(self):
        out = hadamard(encode_qubit(1, 0), BosonicQubit(0, 1))
        assert fidelity(out, encode_qubit(INV_SQRT2, INV_SQRT2)) > 1 - 1e-12

    def test_hadamard_squares_to_identity(self, rng):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= np.linalg.norm(z)
        s = encode_qubit(z[0], z[1])
        out = hadamard(hadamard(s, BosonicQubit(0, 1)), BosonicQubit(0, 1))
        assert fidelity(out, s) > 1 - 1e-12

    def test_rotation_inverse(self):
        q = BosonicQubit(0, 1)
        s = encode_qubit(0.6, 0.8)
        out = qubit_rotation(qubit_rotation(s, q, 0.7), q, -0.7)
        assert fock.states_close(out, s, tol=1e-12)

    def test_rotation_matches_logical_matrix(self):
        theta = 0.5
        out = qubit_rotation(encode_qubit(1, 0), BosonicQubit(0, 1), theta)
        assert abs(out.amplitude((0, 1)) - math.cos(theta)) < 1e-12
        assert abs(out.amplitude((1, 0)) - math.sin(theta)) < 1e-12

    def test_balanced_splitters_are_built_once(self, monkeypatch):
        made = []
        build = protocols.element_matrix
        monkeypatch.setattr(protocols, "element_matrix", lambda e: made.append(e) or build(e))
        protocols._balanced.cache_clear()
        pair = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.8, 0.6))
        for _ in range(3):
            hadamard(encode_qubit(0.6, 0.8), BosonicQubit(0, 1))
            protocols.csign_modes_ns(pair, 0, 2)
        assert [e.theta for e in made] == [protocols.BALANCED, -protocols.BALANCED]
        for sign in (1, -1):
            shared = protocols._balanced(sign)
            assert not shared.matrix.flags.writeable
            assert shared.matrix.tobytes() == build(
                protocols.BeamSplitter(0, 1, sign * protocols.BALANCED)).matrix.tobytes()


class TestPatternTotals:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_float_product_gives_the_integer_sums(self, dtype, rng):
        counts = rng.integers(0, 200, (500, 9)).astype(dtype)
        k, s = protocols._totals(counts)
        assert k.dtype == s.dtype == np.int64
        assert k.tolist() == [sum(row) for row in counts.tolist()]
        assert s.tolist() == [sum(j * r for j, r in enumerate(row)) for row in counts.tolist()]

    def test_sums_from_2_to_the_53_are_summed_in_int64(self):
        # s = 1 + 2 (2^52 + 1) = 2^53 + 3, which no float64 holds
        counts = np.array([[0, 1, 2**52 + 1], [0, 3, 0]], dtype=np.int64)
        k, s = protocols._totals(counts)
        assert k.tolist() == [2**52 + 2, 3] and s.tolist() == [2**53 + 3, 3]
        assert [t.tolist() for t in protocols._totals(counts[:0])] == [[], []]


class TestNs1:
    def test_network_matches_target_matrix(self):
        from fockworks.optics import compose

        recomposed = compose(ns1_network().sequence)
        assert np.abs(recomposed.matrix - ns1_unitary().matrix).max() < 1e-10

    def test_flips_two_photon_amplitude(self):
        s = FockState(1, {(k,): 1 / math.sqrt(3) for k in range(3)})
        res = apply_ns1(s, 0)
        assert abs(res.success_probability - 0.25) < 1e-10
        expect = FockState(1, {(0,): 1, (1,): 1, (2,): -1}).normalized()
        assert fidelity(res.output_state, expect) > 1 - 1e-10

    def test_vacuum_passthrough(self):
        res = apply_ns1(number_state((0,)), 0)
        assert abs(res.success_probability - 0.25) < 1e-10
        assert res.output_state.amplitude((0,)) == 1

    def test_superposition_zero_two(self):
        s = FockState(1, {(0,): INV_SQRT2, (2,): INV_SQRT2})
        res = apply_ns1(s, 0)
        expect = FockState(1, {(0,): INV_SQRT2, (2,): -INV_SQRT2})
        assert fidelity(res.output_state, expect) > 1 - 1e-10

    def test_rejects_three_photons(self):
        with pytest.raises(UnsupportedInputError):
            apply_ns1(number_state((3,)), 0)

    def test_sampled_failure_reports_outcome(self):
        s = FockState(1, {(k,): 1 / math.sqrt(3) for k in range(3)})
        rng = np.random.default_rng(0)
        results = [apply_ns1(s, 0, rng=rng) for _ in range(40)]
        failures = [r for r in results if not r.succeeded]
        assert failures, "expected some heralded failures in 40 samples"
        assert all(r.failure_info["outcome"] != (1, 0) for r in failures)


class TestCsign:
    def test_success_probability_and_truth_table(self):
        for (a, b) in itertools.product(BASIS, repeat=2):
            state = tensor(encode_qubit(*a), encode_qubit(*b))
            res = csign_via_ns(state, BosonicQubit(0, 1), BosonicQubit(2, 3))
            assert abs(res.success_probability - 1 / 16) < 1e-10
            expect = csign_ideal_modes(state, 0, 2)
            assert fidelity(res.output_state, expect) > 1 - 1e-10

    def test_superposition_matches_ideal(self, rng):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z[:2] /= np.linalg.norm(z[:2])
        z[2:] /= np.linalg.norm(z[2:])
        state = tensor(encode_qubit(z[0], z[1]), encode_qubit(z[2], z[3]))
        res = csign_via_ns(state, BosonicQubit(0, 1), BosonicQubit(2, 3))
        expect = csign_ideal_modes(state, 0, 2)
        assert fidelity(res.output_state, expect) > 1 - 1e-10

    def test_incoherent_input_rejected(self):
        bad = tensor(FockState(2, {(0, 0): 1.0}), encode_qubit(1, 0))
        with pytest.raises(UnsupportedInputError):
            csign_via_ns(bad, BosonicQubit(0, 1), BosonicQubit(2, 3))

    def test_strategy_dispatch(self):
        state = tensor(encode_qubit(*BASIS[1]), encode_qubit(*BASIS[1]))
        ideal = apply_csign_modes(state, 0, 2, strategy="ideal")
        assert ideal.success_probability == 1.0
        assert ideal.output_state.amplitude((1, 0, 1, 0)) == -1
        tele = apply_csign_modes(state, 0, 2, strategy="teleported", n=1)
        assert abs(tele.success_probability - 0.25) < 1e-10
        assert fidelity(tele.output_state, ideal.output_state) > 1 - 1e-10

    def test_cnot_flips_target(self):
        state = tensor(encode_qubit(0, 1), encode_qubit(1, 0))
        res = cnot_via_csign(state, BosonicQubit(0, 1), BosonicQubit(2, 3))
        expect = tensor(encode_qubit(0, 1), encode_qubit(0, 1))
        assert fidelity(res.output_state, expect) > 1 - 1e-10

    def test_teleported_strategy_counts_out_the_leftover_modes(self):
        # from n = 2 the gate leaves resource modes behind; the output, counted
        # free of them, sits on the input modes and equals the oracle up to a phase
        state = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.28j, 0.96))
        expect = csign_ideal_modes(state, 0, 2)
        exact = apply_csign_modes(state, 0, 2, strategy="teleported", n=2)
        assert exact.details["leftover_modes"] and exact.output_state.modes == 4
        assert abs(exact.success_probability - 4 / 9) < 1e-12
        assert fidelity(exact.output_state, expect) > 1 - 1e-10
        sampled = [apply_csign_modes(state, 0, 2, strategy="teleported", n=2,
                                     rng=np.random.default_rng(seed)) for seed in range(6)]
        passed = [res for res in sampled if res.succeeded]
        assert 0 < len(passed) < len(sampled)
        assert all(res.output_state.modes == 4 and fidelity(res.output_state, expect) > 1 - 1e-10
                   for res in passed)

    def test_cnot_returns_a_failed_gate_as_it_is(self):
        state = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.28j, 0.96))
        q1, q2 = BosonicQubit(0, 1), BosonicQubit(2, 3)
        res = cnot_via_csign(state, q1, q2, strategy="ns", rng=np.random.default_rng(1))
        gate = apply_csign_modes(hadamard(state, q2), 0, 2, strategy="ns", rng=np.random.default_rng(1))
        assert not res.succeeded and res.failure_info == gate.failure_info
        # no second Hadamard after a failed gate
        assert list(res.output_state.terms()) == list(gate.output_state.terms())


class TestB4Prime:
    def test_success_probability(self):
        res = prepare_b4_prime()
        assert abs(res.success_probability - 1 / 16) < 1e-10

    def test_output_matches_closed_form(self):
        res = prepare_b4_prime()
        assert fidelity(res.output_state, make_resource("b4prime").state) > 1 - 1e-10

    def test_sampled_failure_keeps_detector_record(self):
        rng = np.random.default_rng(1)
        failures = 0
        for _ in range(30):
            res = prepare_b4_prime(rng=rng)
            if not res.succeeded:
                failures += 1
                assert "outcome" in res.failure_info
        assert failures > 0

    def test_trace_chains_cumulative_probability(self):
        res = prepare_b4_prime()
        cums = [s["cum_p"] for s in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(cums, cums[1:]))
        assert abs(cums[-1] - 1 / 16) < 1e-10


class TestResources:
    def test_t1_is_bell_pair(self):
        t1 = make_resource("tn", 1).state
        assert abs(t1.amplitude((0, 1)) - INV_SQRT2) < 1e-12
        assert abs(t1.amplitude((1, 0)) - INV_SQRT2) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tn_term_count(self, n):
        res = make_resource("tn", n)
        assert res.state.term_count() == n + 1
        assert abs(res.state.norm() - 1) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tnprime_term_count(self, n):
        assert make_resource("tnprime", n).state.term_count() == (n + 1) ** 2

    def test_tnprime_1_signs(self):
        # the only negative term sits at i = j = 0: occupation 0101
        state = make_resource("tnprime", 1).state
        assert abs(state.amplitude((0, 1, 0, 1)) + 0.5) < 1e-12
        for occ in [(0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]:
            assert abs(state.amplitude(occ) - 0.5) < 1e-12

    def test_tnprime_1_equals_b4prime(self):
        assert fidelity(make_resource("tnprime", 1).state,
                        make_resource("b4prime").state) > 1 - 1e-12

    def test_e_state(self):
        e = make_resource("e").state
        assert abs(e.amplitude((0, 1, 1, 0)) - INV_SQRT2) < 1e-12
        assert abs(e.amplitude((1, 0, 0, 1)) + INV_SQRT2) < 1e-12

    def test_pnprime_counts(self):
        even = make_resource("pnprime", 2, parity=0).state
        odd = make_resource("pnprime", 2, parity=1).state
        assert even.term_count() == 5
        assert odd.term_count() == 4

    def test_tpn_parity_tags(self):
        state = make_resource("tpn", 2).state
        for occ, _ in state.terms():
            n_b = sum(occ[2:4])  # photons in the b-block count the |0> qubits
            assert occ[4] == n_b % 2
            assert occ[5] == (n_b + 1) % 2

    def test_unknown_kind(self):
        with pytest.raises(protocols.ProtocolError):
            make_resource("nope", 1)


_RAIL = FockState(1, {(0,): 0.6, (1,): 0.8})
_PAIR = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.8, 0.6))

#: every entry point of a size, a cutoff or a trial count that is not an integer
NOT_INTEGERS = {
    "make_resource": lambda: make_resource("tn", 2.5),
    "teleport_tn": lambda: protocols.teleport_tn(_RAIL, 0, 2.5),
    "teleport_tn sampled": lambda: protocols.teleport_tn(_RAIL, 0, 2.5, rng=np.random.default_rng(1)),
    "csign_teleported": lambda: protocols.csign_teleported(_PAIR, BosonicQubit(0, 1),
                                                           BosonicQubit(2, 3), 2.5),
    "parity_measure": lambda: protocols.parity_measure(_PAIR, 0, 2, 2.5),
    "teleport_with_e": lambda: protocols.teleport_with_e(0.6, 0.8, n=2.5),
    "distribute_entanglement": lambda: protocols.distribute_entanglement(2.5),
    "teleport_with_e ideal": lambda: protocols.teleport_with_e(0.6, 0.8, n=2.5, ideal_parity=True),
    "distribute_entanglement ideal": lambda: protocols.distribute_entanglement(2.5, method="ideal"),
    "prepare_tp_n": lambda: prepare_tp_n(1.5),
    "prepare_p_prime": lambda: protocols.prepare_p_prime(1.5),
    "combine_tp_to_tprime": lambda: protocols.combine_tp_to_tprime(1.5),
    "combine_tp_to_tprime copies": lambda: protocols.combine_tp_to_tprime(
        1.5, copies=(make_resource("tpn", 1).state,) * 2),
    "make_trial": lambda: costs.make_trial("teleport", 2.5),
    "SqueezeParam": lambda: source.SqueezeParam(0.3, cutoff=2.5),
    "monte_carlo": lambda: costs.monte_carlo(lambda u: u < 0.5, 2.5, 1),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_a_non_integer_size_is_refused_where_it_enters(name):
    error = ValueError if name in ("SqueezeParam", "monte_carlo") else protocols.ProtocolError
    with pytest.raises(error, match=r"integer.*got (2|1)\.5$"):
        NOT_INTEGERS[name]()


@pytest.mark.parametrize("ideal", [False, True], ids=["gadget", "ideal"])
@pytest.mark.parametrize("n", [-3, 0, "x"])
def test_the_parity_composites_check_their_size_on_either_path(n, ideal):
    with pytest.raises(protocols.ProtocolError, match="needs an integer n >= 1"):
        protocols.teleport_with_e(0.6, 0.8, n=n, ideal_parity=ideal)
    with pytest.raises(protocols.ProtocolError, match="needs an integer n >= 1"):
        protocols.distribute_entanglement(n, method="ideal" if ideal else "gadget")


class TestTpPreparation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closed_form(self, n):
        res = prepare_tp_n(n, strategy="ideal")
        assert fidelity(res.output_state, make_resource("tpn", n).state) > 1 - 1e-10

    def test_ns_strategy_probability_tracks_gate_count(self):
        res = prepare_tp_n(2, strategy="ns")
        count = res.details["csign_count"]
        assert count == 4
        assert abs(res.success_probability - (1 / 16) ** count) < 1e-18
        assert fidelity(res.output_state, make_resource("tpn", 2).state) > 1 - 1e-10

    def test_teleported_strategy(self):
        res = prepare_tp_n(1, strategy="teleported", teleport_n=1)
        assert abs(res.success_probability - 0.25) < 1e-10
        assert fidelity(res.output_state, make_resource("tpn", 1).state) > 1 - 1e-10

    def test_teleported_strategy_at_n2(self):
        res = prepare_tp_n(2, strategy="teleported", teleport_n=2)
        assert res.details["csign_count"] == 4
        assert abs(res.success_probability - (4 / 9) ** 4) < 1e-12
        assert fidelity(res.output_state, make_resource("tpn", 2).state) > 1 - 1e-10

    def test_sampled_run_fails_sometimes(self):
        rng = np.random.default_rng(7)
        outcomes = [prepare_tp_n(2, strategy="ns", rng=rng).succeeded for _ in range(64)]
        assert not all(outcomes)


class TestCombineToTprime:
    @pytest.mark.parametrize("n", [1, 2])
    def test_four_equiprobable_outcomes(self, n):
        res = protocols.combine_tp_to_tprime(n)
        probs = [b["p"] for b in res.details["branches"]]
        assert len(probs) == 4
        assert all(abs(p - 0.25) < 1e-10 for p in probs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_all_outcomes_correct_to_target(self, n):
        res = protocols.combine_tp_to_tprime(n)
        target = make_resource("tnprime", n).state
        for b in res.details["branches"]:
            assert fidelity(b["state"], target) > 1 - 1e-10

    def test_circuit_prepared_copies(self):
        tp = prepare_tp_n(2, strategy="ideal").output_state
        res = protocols.combine_tp_to_tprime(2, copies=(tp, tp))
        target = make_resource("tnprime", 2).state
        assert fidelity(res.output_state, target) > 1 - 1e-10


class TestAncillaDetectionTrace:
    def test_sampled_trace_records_the_detected_pattern(self):
        for seed in range(6):
            tprime = protocols.combine_tp_to_tprime(1, rng=np.random.default_rng(seed))
            assert tprime.trace[-1]["outcome"] == list(tprime.details["pattern"])
            pprime = protocols.prepare_p_prime(1, rng=np.random.default_rng(seed))
            assert pprime.trace[-1]["outcome"] == ([0, 1] if pprime.details["parity"] == 0 else [1, 0])

    def test_distribute_trace_records_the_parity(self):
        for seed in range(6):
            res = protocols.distribute_entanglement(2, rng=np.random.default_rng(seed))
            assert res.trace[-1]["step"] == "parity"
            assert res.trace[-1]["outcome"] == res.details["branch"]["parity"]


class TestPPrimeCircuit:
    @pytest.mark.parametrize("n", [1, 2])
    def test_both_parities_match_closed_form(self, n):
        res = protocols.prepare_p_prime(n)
        for entry in res.details["branches"]:
            target = make_resource("pnprime", n, parity=entry["parity"]).state
            assert fidelity(entry["state"], target) > 1 - 1e-10
