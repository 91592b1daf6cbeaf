"""Teleportation gadgets: corrections validated against brute-force branch
projection, failure accounting, and the measurement-record bookkeeping."""

import gc
import math
from collections import Counter

import numpy as np
import pytest

from fockworks import fock, measure, optics, protocols
from fockworks._backend import kernels
from fockworks.costs import encode_single_rail
from fockworks.fock import FockState, fidelity, number_state, tensor
from fockworks.protocols import (
    BosonicQubit,
    PreparedResource,
    csign_ideal_modes,
    csign_teleported,
    distribute_entanglement,
    encode_qubit,
    factor_out,
    make_resource,
    parity_measure,
    teleport_bm1,
    teleport_tn,
    teleport_with_e,
)

INV_SQRT2 = 1 / math.sqrt(2)


def random_single_rail(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    return encode_single_rail(z[0], z[1])


class TestBm1:
    """The splitter-and-counters detection inside teleport_bm1, read off its branches."""

    @staticmethod
    def _branches(state):
        return {b["pattern"]: b for b in teleport_bm1(state, 0).details["branches"]}

    def test_plus_pattern_needs_no_correction(self, rng):
        branch = self._branches(random_single_rail(rng))[(0, 1)]
        assert branch["ok"] and branch["total"] == 1
        assert branch["corrections"] == []

    def test_minus_pattern_gets_a_pi_phase(self, rng):
        branch = self._branches(random_single_rail(rng))[(1, 0)]
        assert branch["ok"] and branch["total"] == 1
        assert branch["corrections"] == [("phase", branch["target_mode"], math.pi)]

    def test_vacuum_input_fails_even_on_the_empty_pattern(self):
        fails = [b for b in self._branches(number_state((0,))).values() if not b["ok"]]
        assert [(b["pattern"], b["total"] % 2, b["projected"]) for b in fails] == [((0, 0), 0, 0)]

    def test_photon_input_fails_bunched_with_no_sign(self):
        fails = [b for b in self._branches(number_state((1,))).values() if not b["ok"]]
        assert fails and all(b["total"] == 2 and b["projected"] == 1 for b in fails)
        assert all("corrections" not in b for b in fails)


class TestTeleportBm1:
    def test_success_probability_half(self, rng):
        for _ in range(5):
            res = teleport_bm1(random_single_rail(rng), 0)
            assert abs(res.success_probability - 0.5) < 1e-10

    def test_corrected_fidelity(self, rng):
        state = random_single_rail(rng)
        res = teleport_bm1(state, 0)
        for b in res.details["branches"]:
            if b["ok"]:
                out = factor_out(b["state"], [b["target_mode"]])
                assert fidelity(out.normalized(), state) > 1 - 1e-10

    def test_failures_project_input(self, rng):
        state = random_single_rail(rng)
        res = teleport_bm1(state, 0)
        fails = [b for b in res.details["branches"] if not b["ok"]]
        assert {b["projected"] for b in fails} == {0, 1}
        p_fail = sum(b["p"] for b in fails)
        assert abs(p_fail - 0.5) < 1e-10

    def test_sampled_deterministic_per_seed(self):
        state = encode_single_rail(0.6, 0.8)
        a = teleport_bm1(state, 0, rng=np.random.default_rng(5))
        b = teleport_bm1(state, 0, rng=np.random.default_rng(5))
        assert a.succeeded == b.succeeded
        assert a.trace[-1]["outcome"] == b.trace[-1]["outcome"]


class TestTeleportTn:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_failure_probability(self, n, rng):
        for _ in range(3):
            res = teleport_tn(random_single_rail(rng), 0, n)
            assert abs(res.details["failure_probability"] - 1 / (n + 1)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corrections_validated_by_projection(self, n, rng):
        # brute-force oracle: project onto the detected pattern, renormalize,
        # and compare with the corrected branch state
        state = random_single_rail(rng)
        res = teleport_tn(state, 0, n)
        for b in res.details["branches"]:
            if not b["ok"]:
                continue
            out = factor_out(b["state"], [b["target_mode"]])
            assert fidelity(out.normalized(), state) > 1 - 1e-10

    def test_landing_slot_and_leftovers(self):
        # k detections land the qubit on the k-th of the last n modes; modes
        # before it read 0 and modes after it read 1
        n = 3
        state = encode_single_rail(0.6, 0.8)
        res = teleport_tn(state, 0, n)
        for b in res.details["branches"]:
            if not b["ok"]:
                continue
            k = b["k"]
            assert b["target_mode"] == k - 1  # input + first n were measured away
            for occ, _ in b["state"].terms():
                for m in range(n):
                    if m == b["target_mode"]:
                        continue
                    assert occ[m] == (0 if m < b["target_mode"] else 1)

    def test_entangled_input_halves(self):
        # teleporting half of a Bell pair preserves the entanglement
        bell = FockState(2, {(0, 0): INV_SQRT2, (1, 1): INV_SQRT2})
        res = teleport_tn(bell, 1, 2)
        for b in res.details["branches"]:
            if b["ok"]:
                pair = factor_out(b["state"], [0, 1 + b["target_mode"] - 1])
                # mode 0 survives as index 0; target index already shifted
                pair = factor_out(b["state"], [0, b["target_mode"]])
                assert fidelity(pair.normalized(), bell) > 1 - 1e-10

    def test_failure_info_identifies_projection(self):
        state = encode_single_rail(0.6, 0.8)
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(60):
            res = teleport_tn(state, 0, 1, rng=rng)
            if not res.succeeded:
                seen.add(res.failure_info["value"])
                assert res.failure_info["projected_mode"] == 0
        assert seen == {0, 1}

    def test_three_mode_superposition_rail(self):
        # teleporting one rail of a three-mode single-photon superposition
        w = FockState(3, {(1, 0, 0): 1 / math.sqrt(3), (0, 1, 0): 1 / math.sqrt(3),
                          (0, 0, 1): 1 / math.sqrt(3)})
        res = teleport_tn(w, 1, 4)
        assert abs(res.details["failure_probability"] - 0.2) < 1e-10
        for b in res.details["branches"]:
            if b["ok"]:
                tri = factor_out(b["state"], [0, 1, b["target_mode"]])
                back = fock.permute_modes(tri, [0, 2, 1])
                assert fidelity(back.normalized(), w) > 1 - 1e-10

    @pytest.mark.parametrize("n, route", [(4, (0, 1, 1)), (6, (1, 0, 0))])
    def test_a_large_detection_is_one_pass(self, n, route, monkeypatch):
        # output bounds 377 and 5,147: below optics.ARRAY_MIN_TERMS the state
        # is evolved and grouped on its own, from it on in one rank-key pass
        passes = _counting(monkeypatch, measure, "_pass_groups")
        evolutions = _counting(monkeypatch, (protocols, optics), "apply_unitary")
        groupings = _counting(monkeypatch, (protocols, measure), "measure_modes")
        res = teleport_tn(encode_single_rail(0.6, 0.8j), 0, n)
        assert (len(passes), len(evolutions), len(groupings)) == route
        assert abs(res.details["failure_probability"] - 1 / (n + 1)) < 1e-10


class TestSampledTeleportTn:
    """A sampled run projects and corrects only the branch it draws."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sampled_run_is_its_exact_branch(self, n, rng):
        state = random_single_rail(rng)
        exact = {b["pattern"]: b for b in teleport_tn(state, 0, n).details["branches"]}
        for seed in range(50):
            res = teleport_tn(state, 0, n, rng=np.random.default_rng(seed))
            branch = exact[tuple(res.trace[-1]["outcome"])]
            assert res.succeeded == branch["ok"]
            assert res.output_state.modes == branch["state"].modes
            assert fock.states_close(res.output_state, branch["state"], 1e-10)
            assert res.corrections == branch.get("corrections", [])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sampled_run_projects_one_post_state(self, n, monkeypatch):
        calls = []
        projection = measure._projection
        monkeypatch.setattr(measure, "_projection", lambda *a: calls.append(1) or projection(*a))
        state = encode_single_rail(0.6, 0.8)
        teleport_tn(state, 0, n, rng=np.random.default_rng(n))
        assert len(calls) == 1
        # an exact run builds the landed branch only; the rest on first read
        branches = teleport_tn(state, 0, n).details["branches"]
        assert len(calls) == 2
        for b in branches:
            list(b["state"].terms())
        assert len(calls) == 1 + len(branches)
        for b in branches:
            list(b["state"].terms())
        assert len(calls) == 1 + len(branches)


def _counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on; ``module`` may be a
    tuple of modules, each binding the function by that name."""
    calls = []
    for owner in module if isinstance(module, tuple) else (module,):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _original=original, **k: calls.append(1) or _original(*a, **k))
    return calls


def _plus_plus():
    plus = encode_qubit(INV_SQRT2, INV_SQRT2)
    return tensor(plus, plus)


def _csign_run(n, state=None):
    return lambda rng: csign_teleported(state or _plus_plus(), BosonicQubit(0, 1),
                                        BosonicQubit(2, 3), n, rng=rng)


def _teleport_run(n, state=None, resource=None):
    return lambda rng: teleport_tn(state or encode_single_rail(0.6, 0.8), 0, n, rng=rng,
                                   resource=resource)


def _detected(res):
    """The count patterns a run detected, one per detection stage."""
    return tuple(tuple(step["outcome"]) for step in res.trace if step["kind"] == "measure")


def _coherent_resource():
    """A 2n = 4 mode resource whose sectors are coherent, bunched and plain.

    With the input photon on mode 0 the measured modes are 0, 1, 2: the
    first two terms share their kept occupation and photon number, the
    third puts two photons in one measured mode.
    """
    amps = {(1, 0, 0, 1): 0.5, (0, 1, 0, 1): 0.5j, (2, 0, 1, 0): 0.5, (0, 0, 1, 1): -0.5}
    return PreparedResource("tn", 2, FockState(4, amps), {})


class TestSampledDetection:
    """A sampled Fourier detection draws its pattern without evolving the state."""

    @pytest.mark.parametrize("run", [_teleport_run(2), _teleport_run(4), _teleport_run(6),
                                     _csign_run(1), _csign_run(2)])
    def test_sampled_run_neither_evolves_nor_groups(self, run, empty_rows, monkeypatch):
        expansions = _counting(monkeypatch, kernels, "expand_basis_state")
        groupings = _counting(monkeypatch, measure, "_groups")
        projections = _counting(monkeypatch, measure, "_projection")
        for seed in range(12):
            before = len(projections)
            res = run(np.random.default_rng(seed))
            assert len(projections) - before == len(_detected(res))
        assert not expansions and not groupings

    @staticmethod
    def _check_frequencies(run, exact, draws, seed):
        """Every pattern within 4.5 sigma of its exact probability, none
        outside the exact support; each run equals its exact branch."""
        rng = np.random.default_rng(seed)
        seen = Counter()
        for _ in range(draws):
            res = run(rng)
            key = _detected(res)
            assert key in exact, f"{key} is not an exact branch"
            branch = exact[key]
            assert res.succeeded == branch["ok"]
            assert fock.states_close(res.output_state, branch["state"], 1e-10)
            assert res.corrections == branch.get("corrections", [])
            seen[key] += 1
        assert abs(sum(b["p"] for b in exact.values()) - 1) < 1e-10
        for key, branch in exact.items():
            p = branch["p"]
            assert abs(seen[key] - draws * p) <= 4.5 * math.sqrt(draws * p * (1 - p)), key

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_teleport_tn_frequencies(self, n):
        state = encode_single_rail(0.6, 0.8j)
        exact = {(b["pattern"],): b for b in teleport_tn(state, 0, n).details["branches"]}
        self._check_frequencies(_teleport_run(n, state), exact, 3000, seed=60 + n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_staged_gate_frequencies(self, n):
        state = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.28j, 0.96))
        res = csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), n)
        exact = {(b["pattern1"],) + ((b["pattern2"],) if "pattern2" in b else ()): b
                 for b in res.details["branches"]}
        self._check_frequencies(_csign_run(n, state), exact, 3000, seed=70 + n)

    def test_coherent_sector_falls_back_to_its_own_evolution(self, empty_rows, monkeypatch):
        resource = _coherent_resource()
        state = encode_single_rail(0.6, 0.8)
        exact = {(b["pattern"],): b
                 for b in teleport_tn(state, 0, 2, resource=resource).details["branches"]}
        expansions = _counting(monkeypatch, kernels, "expand_basis_state")
        self._check_frequencies(_teleport_run(2, state, resource), exact, 3000, seed=80)
        assert expansions


def _stage_subs(state, kind, mode_x, mode_y, n):
    """The distinct sub-occupations each Fourier stage of an exact
    teleported gate evolves: stage 1's, then those of every stage-1 success."""
    layout = protocols._TeleportLayout(state.modes, mode_x, mode_y, n)
    work = tensor(state, make_resource(kind, n).state)
    u = optics.fourier_matrix(n)
    first = {tuple(occ[m] for m in layout.fourier_x) for occ, _ in work.terms()}
    passed = [br.post_state for br in measure.measure_modes(
        optics.apply_unitary(work, u, layout.fourier_x), layout.fourier_x)
        if 0 < sum(c for _, c in br.outcome) < n + 1]
    second = {tuple(occ[m] for m in layout.fourier_y) for s in passed for occ, _ in s.terms()}
    return first, second


class TestOnePassSecondStage:
    """An exact teleported gate evolves and groups stage 1 once and the y
    detection of every stage-1 success in one array pass."""

    RUNS = {
        "csign_teleported": (
            lambda s, n: csign_teleported(s, BosonicQubit(0, 1), BosonicQubit(2, 3), n),
            lambda: tensor(encode_qubit(0.6, 0.8), encode_qubit(0.28j, 0.96)), "tnprime", 0, 2),
        "parity_measure": (
            lambda s, n: parity_measure(s, 0, 1, n),
            lambda: tensor(encode_single_rail(0.6, 0.8j), encode_single_rail(0.28j, 0.96)),
            "pnprime", 0, 1),
    }

    @pytest.mark.parametrize("name, n", [("csign_teleported", 3), ("csign_teleported", 4),
                                         ("parity_measure", 3)])
    def test_one_evolution_and_one_grouping_per_stage(self, name, n, empty_rows, monkeypatch):
        run, make_state, kind, mode_x, mode_y = self.RUNS[name]
        state = make_state()
        first, second = _stage_subs(state, kind, mode_x, mode_y, n)
        # stage 1's output bound is below optics.ARRAY_MIN_TERMS (832, 3,770
        # and 416), so measure evolves and groups it on its own
        evolutions = _counting(monkeypatch, (protocols, optics), "apply_unitary")
        groupings = _counting(monkeypatch, (protocols, measure), "measure_modes")
        expansions = _counting(monkeypatch, kernels, "expand_basis_state")
        passes = _counting(monkeypatch, measure, "_pass_groups")
        res = run(state, n)
        assert res.succeeded and any("pattern2" in b for b in res.details["branches"])
        assert len(evolutions) == 1 and len(groupings) == 1
        # stage 1 expands each distinct sub-occupation once; a pass expands
        # the distinct sub-occupations of each photon total in one call
        totals = {sum(sub) for sub in second}
        assert len(expansions) <= len(first) + len(passes) * len(totals)
        if n == 3:
            assert len(passes) == 1 and len(expansions) == len(first) + len(totals)

    def test_passes_split_at_the_cap_give_the_same_branches(self, monkeypatch):
        run, make_state, *_ = self.RUNS["csign_teleported"]

        def bits():
            res = run(make_state(), 3)
            return [(b["p"].hex(), [(o, a.real.hex(), a.imag.hex()) for o, a in b["state"].terms()])
                    for b in res.details["branches"]]

        whole = bits()
        passes = _counting(monkeypatch, measure, "_pass_groups")
        monkeypatch.setattr(measure, "_PASS_TERMS", 500)
        assert bits() == whole and len(passes) > 1


class TestBranchesFromColumns:
    """An exact run lists its branches as columns: a branch's dict and its
    lazy state, which holds the stage's shared block, are made when the
    branch is read, and nothing is projected until a state is read."""

    RUNS = {
        "teleport_tn": lambda: teleport_tn(encode_single_rail(0.6, 0.8j), 0, 6),  # one pass
        # stage 1 grouped by dicts, stage 2 in one pass
        "csign_teleported": lambda: csign_teleported(_plus_plus(), BosonicQubit(0, 1),
                                                     BosonicQubit(2, 3), 3),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_a_state_is_made_only_for_a_read_branch(self, name, monkeypatch):
        lazy = []
        init = measure._BranchState.__init__
        monkeypatch.setattr(measure._BranchState, "__init__",
                            lambda state, *a: lazy.append(state) or init(state, *a))
        projections = _counting(monkeypatch, measure, "_projection")
        passes = _counting(monkeypatch, measure, "_pass_groups")
        res = self.RUNS[name]()
        branches = res.details["branches"]
        # the op made one lazy state, the landed branch's, and built it
        assert lazy == [res.output_state] and not hasattr(res.output_state, "_block")
        projected = len(projections)
        # reading a branch makes its dict and one lazy state; reading it again makes none
        landed = int(np.argmax(branches.ok))
        read = [i for i in (0, len(branches) // 2, len(branches) - 1) if i != landed]
        for count, i in enumerate(read, start=2):
            branch = branches[i - len(branches)]
            assert branches[i] is branch and len(lazy) == count and lazy[-1] is branch["state"]
        assert len(projections) == projected
        # k and s come from the records' columns, not pattern by pattern
        assert not hasattr(protocols, "_phase_index")
        # a lazy state holds a block shared by its stage, its row, its weight
        # and its corrections, and nothing else of its own
        unread = lazy[1:]
        assert all(hasattr(state, "_block") for state in unread)
        assert len({id(state._block) for state in unread}) <= 1 + len(passes)
        for state in unread:
            own = [ref for ref in gc.get_referents(state)
                   if ref is not state._block and not isinstance(ref, type)]
            assert {type(ref) for ref in own} <= {int, float, list, tuple}
        # reading every dict projects nothing; the op projected the landed
        # branch alone: a gate's stage-1 successes reach its pass as arrays
        every = list(branches)
        assert len(lazy) == len(every) and len(projections) == projected == 1
        for state in unread:
            state.terms()
            state.norm()
        assert len(projections) == projected + len(unread)

    def test_tracked_objects_grow_with_the_stages_not_the_branches(self):
        # clock-free: an exact teleport_tn keeps columns, not per-branch objects
        def grown(n):
            state = encode_single_rail(0.6, 0.8j)
            # fills the caches: an expansion row is stored on its second request
            for _ in range(2):
                teleport_tn(state, 0, n)
            gc.collect()
            before = len(gc.get_objects())
            res = teleport_tn(state, 0, n)
            gc.collect()
            return len(gc.get_objects()) - before, len(res.details["branches"])

        (small, few), (large, many) = grown(4), grown(8)
        assert many > 50 * few
        assert large - small < 10 and large < 100


class TestCsignTeleported:
    @pytest.mark.parametrize("n,expected", [(1, 0.25), (2, 4 / 9)])
    def test_success_probability(self, n, expected):
        state = tensor(encode_qubit(INV_SQRT2, INV_SQRT2), encode_qubit(INV_SQRT2, INV_SQRT2))
        res = csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), n)
        assert abs(res.success_probability - expected) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_success_branches_implement_gate(self, n, rng):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z[:2] /= np.linalg.norm(z[:2])
        z[2:] /= np.linalg.norm(z[2:])
        state = tensor(encode_qubit(z[0], z[1]), encode_qubit(z[2], z[3]))
        expect = csign_ideal_modes(state, 0, 2)
        res = csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), n)
        layout = res.details["layout"]
        for b in res.details["branches"]:
            if b.get("ok"):
                quad = factor_out(b["state"], [b["target_x"], layout.final(1),
                                               b["target_y"], layout.final(3)])
                assert fidelity(quad.normalized(), expect) > 1 - 1e-10

    def test_entangled_two_qubit_input(self):
        # the gate acts linearly, so an entangled qubit pair must pass
        # through with the same per-branch corrections
        bell_qq = FockState(4, {(0, 1, 0, 1): INV_SQRT2, (1, 0, 1, 0): INV_SQRT2})
        expect = csign_ideal_modes(bell_qq, 0, 2)
        res = csign_teleported(bell_qq, BosonicQubit(0, 1), BosonicQubit(2, 3), 2)
        layout = res.details["layout"]
        for b in res.details["branches"]:
            if b.get("ok"):
                quad = factor_out(b["state"], [b["target_x"], layout.final(1),
                                               b["target_y"], layout.final(3)])
                assert fidelity(quad.normalized(), expect) > 1 - 1e-10

    def test_stage1_failure_leaves_partner_coherent(self, rng):
        state = tensor(encode_qubit(0.6, 0.8), encode_qubit(0.8j, 0.6))
        res = csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), 1)
        layout = res.details["layout"]
        rho_in, basis_in = fock.reduced_density_matrix(encode_qubit(0.8j, 0.6), [0, 1])
        stage1 = [b for b in res.details["branches"] if not b.get("ok") and b["stage"] == 1]
        assert stage1
        for b in stage1:
            modes = [layout.after_step1(2), layout.after_step1(3)]
            rho, basis = fock.reduced_density_matrix(b["state"], modes)
            idx = [basis.index(k) for k in basis_in]
            assert np.abs(rho[np.ix_(idx, idx)] - rho_in).max() < 1e-10

    def test_stage2_failure_restores_first_qubit(self):
        state = tensor(encode_qubit(0.6, 0.8), encode_qubit(INV_SQRT2, INV_SQRT2))
        res = csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), 1)
        layout = res.details["layout"]
        q1_in = encode_qubit(0.6, 0.8)
        stage2 = [b for b in res.details["branches"] if not b.get("ok") and b["stage"] == 2]
        assert stage2
        for b in stage2:
            pair = factor_out(b["state"], [b["target_x"], layout.final(1)])
            assert fidelity(pair.normalized(), q1_in) > 1 - 1e-10


class TestParityMeasure:
    @pytest.mark.parametrize("occ,parity", [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)])
    def test_basis_states(self, occ, parity):
        res = parity_measure(number_state(occ), 0, 1, 2)
        assert {b["parity"] for b in res.details["branches"] if b["ok"]} == {parity}

    def test_odd_sector_superposition_preserved(self):
        state = FockState(2, {(0, 1): 0.6, (1, 0): 0.8j})
        res = parity_measure(state, 0, 1, 2)
        for b in res.details["branches"]:
            if b["ok"]:
                pair = factor_out(b["state"], [b["target_x"], b["target_y"]])
                assert fidelity(pair.normalized(), state) > 1 - 1e-10

    def test_even_sector_superposition_preserved(self):
        state = FockState(2, {(0, 0): 0.6, (1, 1): 0.8})
        res = parity_measure(state, 0, 1, 2)
        for b in res.details["branches"]:
            if b["ok"]:
                pair = factor_out(b["state"], [b["target_x"], b["target_y"]])
                assert fidelity(pair.normalized(), state) > 1 - 1e-10

    def test_odd_flavor_resource(self):
        res_odd = make_resource("pnprime", 2, parity=1)
        out = parity_measure(number_state((0, 1)), 0, 1, 2, resource=res_odd)
        assert {b["parity"] for b in out.details["branches"] if b["ok"]} == {1}

    def test_ideal_projection_agrees(self):
        state = FockState(2, {(0, 1): 0.6, (1, 1): 0.8})
        branches = protocols.parity_project_ideal(state, 0, 1)
        probs = {b["parity"]: b["p"] for b in branches}
        assert abs(probs[1] - 0.36) < 1e-12
        assert abs(probs[0] - 0.64) < 1e-12

    def test_n1_odd_sector_has_no_channel(self):
        # the even-only n=1 resource cannot report odd parity: the gadget
        # must fail detected rather than crash or fabricate an outcome
        res = parity_measure(number_state((0, 1)), 0, 1, 1)
        assert not res.succeeded
        assert res.success_probability == 0
        assert res.failure_info is not None


class TestTeleportWithE:
    @pytest.mark.parametrize("amps", [(1, 0), (0, 1), (INV_SQRT2, 1j * INV_SQRT2), (0.6, 0.8j)])
    def test_every_branch_restores_input(self, amps):
        expect = encode_qubit(*amps)
        res = teleport_with_e(*amps, n=2)
        for b in filter(lambda b: b["ok"], res.details["branches"]):
            pair = factor_out(b["state"], list(b["out_pair"]))
            assert fidelity(pair.normalized(), expect) > 1 - 1e-10

    def test_ideal_parity_variant(self):
        res = teleport_with_e(0.6, 0.8, n=2, ideal_parity=True)
        expect = encode_qubit(0.6, 0.8)
        total = 0.0
        for b in res.details["branches"]:
            pair = factor_out(b["state"], list(b["out_pair"]))
            assert fidelity(pair.normalized(), expect) > 1 - 1e-10
            total += b["p"]
        assert abs(total - 1) < 1e-10

    def test_sampled_runs_include_gadget_failures(self):
        rng = np.random.default_rng(8)
        runs = [teleport_with_e(0.6, 0.8, n=2, rng=rng) for _ in range(60)]
        succ = sum(r.succeeded for r in runs)
        # gadget succeeds with probability 2/5; allow generous slack
        assert 10 <= succ <= 40
        assert all(r.failure_info for r in runs if not r.succeeded)

    def test_trace_records_the_parity_check_and_the_sign_decode(self):
        exact = teleport_with_e(0.6, 0.8j, n=2)
        runs = [(exact, next(b for b in exact.details["branches"] if b["ok"]))]
        for seed in range(16):
            res = teleport_with_e(0.6, 0.8j, n=2, rng=np.random.default_rng(seed))
            runs.append((res, res.details["branch"]))
        assert {res.succeeded for res, _ in runs} == {True, False}
        for res, branch in runs:
            steps = [(s["step"], s["kind"]) for s in res.trace]
            parity = res.trace[1]
            assert abs(res.trace[-1]["cum_p"] - branch["p"]) < 1e-12
            if not branch["ok"]:
                assert steps == [("adjoin-e", "prep"), ("parity", "measure")]
                assert parity["outcome"] is None
                continue
            assert steps == [("adjoin-e", "prep"), ("parity", "measure"), ("sign", "measure")]
            sign = res.trace[2]
            assert (parity["outcome"], parity["p"]) == (branch["parity"], branch["p_parity"])
            assert (sign["outcome"], sign["sign"]) == (list(branch["pattern"]), branch["sign"])
            assert sign["p"] == branch["p_sign"]

    def test_parity_deterministic_per_bell_class(self):
        # the Bell measurement's parity step distinguishes the two classes
        even_class = FockState(4, {(0, 1, 1, 0): INV_SQRT2, (1, 0, 0, 1): INV_SQRT2})
        odd_class = FockState(4, {(0, 1, 0, 1): INV_SQRT2, (1, 0, 1, 0): INV_SQRT2})
        for state, want in ((even_class, 0), (odd_class, 1)):
            res = parity_measure(state, 1, 2, 2)
            assert {b["parity"] for b in res.details["branches"] if b["ok"]} == {want}


_BRANCH_KEYS = ("pattern", "pattern1", "pattern2", "parity", "sign", "accepted", "stage",
                "projected", "k1", "k2", "ok")


def _branch_class(branch):
    """A branch's detected record: its pattern keys and its ``ok``."""
    return tuple((k, branch[k]) for k in _BRANCH_KEYS if k in branch)


def _parity_stages(res):
    """The detection stages a sampled parity-check run went through: a
    gadget failure stops at its stage, an accepted remote pair after the
    gadget's two, and a sign decode or an even-parity readout adds a third."""
    stage = (res.failure_info or {}).get("stage")
    return stage or (3 if "pattern" in res.details["branch"] else 2)


PARITY_RUNS = {
    "teleport_with_e": lambda rng: teleport_with_e(0.6, 0.8j, n=2, rng=rng),
    "teleport_with_e_ideal": lambda rng: teleport_with_e(0.6, 0.8j, n=2, rng=rng,
                                                         ideal_parity=True),
    "distribute_entanglement": lambda rng: distribute_entanglement(2, rng=rng),
}


class TestStagedParitySampling:
    """A sampled parity check draws the gadget's stages, then its readout."""

    @pytest.mark.parametrize("name,seed", [("teleport_with_e", 90), ("teleport_with_e_ideal", 91),
                                           ("distribute_entanglement", 92)])
    def test_branch_class_frequencies(self, name, seed):
        run = PARITY_RUNS[name]
        exact = Counter()
        for b in run(None).details["branches"]:
            exact[_branch_class(b)] += b["p"]
        assert abs(sum(exact.values()) - 1) < 1e-10
        draws, seen = 3000, Counter()
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            res = run(rng)
            key = _branch_class(res.details["branch"])
            assert key in exact, f"{key} is not an exact branch"
            assert res.succeeded == res.details["branch"]["ok"]
            seen[key] += 1
        for key, p in exact.items():
            assert abs(seen[key] - draws * p) <= 4.5 * math.sqrt(draws * p * (1 - p)), key

    @pytest.mark.parametrize("name", ["teleport_with_e", "distribute_entanglement"])
    def test_sampled_run_projects_once_per_stage(self, name, monkeypatch):
        projections = _counting(monkeypatch, measure, "_projection")
        stages = set()
        for seed in range(24):
            before = len(projections)
            res = PARITY_RUNS[name](np.random.default_rng(seed))
            stages.add(_parity_stages(res))
            assert len(projections) - before == _parity_stages(res)
        assert stages == {1, 2, 3}

    @pytest.mark.parametrize("run", [PARITY_RUNS["teleport_with_e_ideal"],
                                     lambda rng: distribute_entanglement(2, rng=rng, method="ideal")],
                             ids=["teleport_with_e", "distribute_entanglement"])
    def test_ideal_parity_projects_only_the_drawn_sector(self, run, monkeypatch):
        # both parity sectors are possible; a sampled run projects the drawn
        # one, then the sign decode or the even-parity readout if it has one
        projections = _counting(monkeypatch, measure, "_projection")
        monkeypatch.setattr(protocols, "_projection", measure._projection)
        for seed in range(12):
            before = len(projections)
            res = run(np.random.default_rng(seed))
            assert len(projections) - before == 1 + ("pattern" in res.details["branch"])

    @pytest.mark.parametrize("n", [2, 3])
    def test_only_the_readout_groups_a_state(self, n, monkeypatch):
        # the gadget's Fourier stages are boson-sampled; the sign decode or
        # even-parity readout is the one stage grouped by measure_modes
        groupings = _counting(monkeypatch, measure, "_groups")
        for seed in range(6):
            for run in (lambda rng: teleport_with_e(0.6, 0.8, n=n, rng=rng),
                        lambda rng: distribute_entanglement(n, rng=rng)):
                before = len(groupings)
                res = run(np.random.default_rng(seed))
                assert len(groupings) - before == (_parity_stages(res) == 3)


class TestFailureReporting:
    def test_every_failed_result_carries_failure_info(self):
        # detected failure is the contract: whoever fails must say what
        # was projected or which herald misfired
        rng = np.random.default_rng(23)
        state1 = encode_single_rail(0.6, 0.8)
        pair = tensor(encode_qubit(0.6, 0.8), encode_qubit(INV_SQRT2, INV_SQRT2))
        runs = []
        for _ in range(30):
            runs.append(protocols.apply_ns1(FockState(1, {(1,): 1.0}), 0, rng=rng))
            runs.append(teleport_tn(state1, 0, 2, rng=rng))
            runs.append(teleport_bm1(state1, 0, rng=rng))
            runs.append(csign_teleported(pair, BosonicQubit(0, 1), BosonicQubit(2, 3), 1, rng=rng))
        failures = [r for r in runs if not r.succeeded]
        assert failures
        assert all(r.failure_info for r in failures)


class TestDistributeEntanglement:
    def test_ideal_acceptance_and_entropy(self):
        res = distribute_entanglement(method="ideal")
        assert abs(res.details["acceptance_probability"] - 0.5) < 1e-12
        for b in res.details["branches"]:
            entropy = fock.entanglement_entropy(b["state"], list(b["remote"]))
            if b["accepted"]:
                assert abs(entropy - 1.0) < 1e-10
            else:
                assert entropy < 1e-10

    def test_gadget_acceptance_and_schmidt(self):
        res = distribute_entanglement(2, method="gadget")
        assert abs(res.details["acceptance_probability"] - 0.5) < 1e-10
        accepted = [b for b in res.details["branches"] if b["accepted"]]
        for b in accepted[:4]:
            coeffs = fock.schmidt_coefficients(b["state"], list(b["remote"]))
            assert np.allclose(coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-8)

    def test_sampled_mode(self):
        res = distribute_entanglement(2, rng=np.random.default_rng(2))
        assert res.output_state is not None

    def test_sampled_outcomes_cover_all_classes(self):
        kinds = set()
        for i in range(80):
            res = distribute_entanglement(2, rng=np.random.default_rng((9, i)))
            if res.succeeded:
                kinds.add("accept")
            elif res.failure_info and "stage" in res.failure_info:
                kinds.add("gadget-fail")
            else:
                kinds.add("even-reject")
        assert kinds == {"accept", "gadget-fail", "even-reject"}
