"""Acceptance checks: every quantitative claim the package commits to.

Each criterion function returns a list of Check records; the CLI's
``verify`` command and tests/test_acceptance.py both run them. Checks
compare exact simulation output against closed-form probabilities and
independently computed oracle values at fixed tolerances.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import costs, fock, measure, optics, protocols, source
from .costs import encode_single_rail
from .fock import FockState, fidelity, number_state, tensor
from .protocols import BosonicQubit, encode_qubit

TOL = 1e-10


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"[{tag}] {self.name}{extra}"


def _close(x, y, tol=TOL):
    return abs(x - y) <= tol


def _random_qubit(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return complex(z[0]), complex(z[1])


# -- criterion 1: heralded sign flip ----------------------------------------


def criterion_01_ns1():
    checks = []
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = z / np.linalg.norm(z)
        state = FockState(1, {(0,): z[0], (1,): z[1], (2,): z[2]})
        res = protocols.apply_ns1(state, 0)
        worst = max(worst, abs(res.success_probability - 0.25))
    checks.append(Check("ns1 success probability 1/4 over 50 random inputs",
                        worst <= TOL, f"max |p-1/4| = {worst:.2e}"))
    u = protocols._ns1_effective()
    lams = []
    for k in range(3):
        evolved = optics.apply_unitary(number_state((k, 1, 0)), u)
        lams.append(evolved.amplitude((k, 1, 0)))
    target = (0.5, 0.5, -0.5)
    worst = max(abs(l - t) for l, t in zip(lams, target))
    checks.append(Check("ns1 conditional amplitudes (1/2, 1/2, -1/2)",
                        worst <= TOL, f"max deviation {worst:.2e}"))
    return checks


# -- criterion 2: conditional sign from two sign flips -----------------------


def criterion_02_csign_ns():
    checks = []
    basis = [(1, 0), (0, 1)]  # logical |0>, |1>
    occs = [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    matrix = np.zeros((4, 4), dtype=complex)
    worst_p = 0.0
    for col, ((a0, a1), (b0, b1)) in enumerate(itertools.product(basis, repeat=2)):
        state = tensor(encode_qubit(a0, a1), encode_qubit(b0, b1))
        res = protocols.csign_via_ns(state, BosonicQubit(0, 1), BosonicQubit(2, 3))
        worst_p = max(worst_p, abs(res.success_probability - 1 / 16))
        for row, occ in enumerate(occs):
            matrix[row, col] = res.output_state.amplitude(occ)
    checks.append(Check("csign-ns success probability 1/16",
                        worst_p <= TOL, f"max |p-1/16| = {worst_p:.2e}"))
    phase = matrix[0, 0] / abs(matrix[0, 0])
    target = np.diag([1, 1, 1, -1]).astype(complex) * phase
    worst = np.abs(matrix - target).max()
    checks.append(Check("csign-ns operator is diag(1,1,1,-1) up to global phase",
                        worst <= TOL, f"entrywise deviation {worst:.2e}"))
    return checks


# -- criterion 3: modified Bell resource circuit ------------------------------


def criterion_03_b4prime():
    res = protocols.prepare_b4_prime()
    target = protocols.make_resource("b4prime").state
    fid = fidelity(res.output_state, target)
    return [
        Check("b4' circuit success probability 1/16",
              _close(res.success_probability, 1 / 16), f"p = {res.success_probability}"),
        Check("b4' circuit output matches closed form",
              fid >= 1 - TOL, f"fidelity = {fid:.15f}"),
    ]


# -- criterion 4: splitter-based teleportation --------------------------------


def criterion_04_bm1_teleport():
    rng = np.random.default_rng(104)
    worst_p, worst_f = 0.0, 1.0
    for _ in range(20):
        a0, a1 = _random_qubit(rng)
        state = encode_single_rail(a0, a1)
        res = protocols.teleport_bm1(state, 0)
        worst_p = max(worst_p, abs(res.success_probability - 0.5))
        for b in res.details["branches"]:
            if b["ok"]:
                pair = protocols.factor_out(b["state"], [b["target_mode"]])
                worst_f = min(worst_f, fidelity(pair.normalized(), state))
    return [
        Check("bm1 teleportation succeeds with probability 1/2",
              worst_p <= TOL, f"max |p-1/2| = {worst_p:.2e}"),
        Check("bm1 teleportation corrected fidelity 1 (20 random qubits)",
              worst_f >= 1 - TOL, f"worst fidelity = {worst_f:.15f}"),
    ]


# -- criterion 5: Fourier-multiport teleportation ------------------------------


def criterion_05_teleport_tn():
    checks = []
    rng = np.random.default_rng(105)
    for n in (1, 2, 3, 4):
        worst_p, worst_f = 0.0, 1.0
        for _ in range(3):
            a0, a1 = _random_qubit(rng)
            state = encode_single_rail(a0, a1)
            res = protocols.teleport_tn(state, 0, n)
            worst_p = max(worst_p, abs(res.details["failure_probability"] - 1 / (n + 1)))
            for b in res.details["branches"]:
                if b["ok"]:
                    pair = protocols.factor_out(b["state"], [b["target_mode"]])
                    worst_f = min(worst_f, fidelity(pair.normalized(), state))
        checks.append(Check(f"teleport n={n} failure probability 1/{n + 1}",
                            worst_p <= TOL, f"max deviation {worst_p:.2e}"))
        checks.append(Check(f"teleport n={n} corrected fidelity 1",
                            worst_f >= 1 - TOL, f"worst fidelity = {worst_f:.15f}"))
    return checks


# -- criterion 6: teleported conditional sign ---------------------------------


def criterion_06_csign_teleported():
    checks = []
    rng = np.random.default_rng(106)
    for n in (1, 2):
        worst_p, worst_f, worst_rho = 0.0, 1.0, 0.0
        for _ in range(3):
            a = _random_qubit(rng)
            b = _random_qubit(rng)
            state = tensor(encode_qubit(*a), encode_qubit(*b))
            expect = protocols.csign_ideal_modes(state, 0, 2)
            res = protocols.csign_teleported(state, BosonicQubit(0, 1), BosonicQubit(2, 3), n)
            worst_p = max(worst_p, abs(res.success_probability - (n / (n + 1)) ** 2))
            layout = res.details["layout"]
            rho_in, basis_in = fock.reduced_density_matrix(encode_qubit(*b), [0, 1])
            for br in res.details["branches"]:
                if br.get("ok"):
                    modes = [br["target_x"], layout.final(1), br["target_y"], layout.final(3)]
                    quad = protocols.factor_out(br["state"], modes)
                    worst_f = min(worst_f, fidelity(quad.normalized(), expect))
                elif br["stage"] == 1:
                    q2_modes = [layout.after_step1(2), layout.after_step1(3)]
                    rho, basis = fock.reduced_density_matrix(br["state"], q2_modes)
                    rho = rho[np.ix_([basis.index(k) for k in basis_in],
                                     [basis.index(k) for k in basis_in])]
                    worst_rho = max(worst_rho, float(np.abs(rho - rho_in).max()))
        checks.append(Check(f"teleported csign n={n} success probability (n/(n+1))^2",
                            worst_p <= TOL, f"max deviation {worst_p:.2e}"))
        checks.append(Check(f"teleported csign n={n} success branches equal the gate",
                            worst_f >= 1 - TOL, f"worst fidelity = {worst_f:.15f}"))
        checks.append(Check(f"teleported csign n={n} stage-1 failure leaves qubit 2 unchanged",
                            worst_rho <= TOL, f"max density-matrix deviation {worst_rho:.2e}"))
    return checks


# -- criterion 7: parity-tagged preparation and assembly ----------------------


def criterion_07_tp_preparation():
    checks = []
    worst = 1.0
    for n in (1, 2, 3):
        res = protocols.prepare_tp_n(n, strategy="ideal")
        target = protocols.make_resource("tpn", n).state
        worst = min(worst, fidelity(res.output_state, target))
    checks.append(Check("tp_n preparation matches closed form (n = 1, 2, 3)",
                        worst >= 1 - TOL, f"worst fidelity = {worst:.15f}"))
    worst_p, worst_f = 0.0, 1.0
    for n in (1, 2):
        res = protocols.combine_tp_to_tprime(n)
        target = protocols.make_resource("tnprime", n).state
        for br in res.details["branches"]:
            worst_p = max(worst_p, abs(br["p"] - 0.25))
            worst_f = min(worst_f, fidelity(br["state"], target))
    checks.append(Check("t'_n assembly: four equiprobable ancilla outcomes",
                        worst_p <= TOL, f"max |p-1/4| = {worst_p:.2e}"))
    checks.append(Check("t'_n assembly: all outcomes correctable to the target",
                        worst_f >= 1 - TOL, f"worst fidelity = {worst_f:.15f}"))
    return checks


# -- criterion 8: parity measurement and entanglement distribution ------------


def criterion_08_parity():
    checks = []
    n = 2
    expected = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    ok = True
    for occ, want in expected.items():
        res = protocols.parity_measure(number_state(occ), 0, 1, n)
        parities = {b["parity"] for b in res.details["branches"] if b["ok"]}
        ok = ok and parities == {want}
    checks.append(Check("parity gadget classifies the four basis states", ok))
    worst = 1.0
    for sector in [
        FockState(2, {(0, 1): 1 / math.sqrt(2), (1, 0): 1 / math.sqrt(2)}),
        FockState(2, {(0, 0): 0.6, (1, 1): 0.8}),
    ]:
        res = protocols.parity_measure(sector, 0, 1, n)
        for b in res.details["branches"]:
            if b["ok"]:
                pair = protocols.factor_out(b["state"], [b["target_x"], b["target_y"]])
                worst = min(worst, fidelity(pair.normalized(), sector))
    checks.append(Check("parity gadget preserves in-sector superpositions",
                        worst >= 1 - TOL, f"worst fidelity = {worst:.15f}"))
    res = protocols.distribute_entanglement(n, method="gadget")
    acc = res.details["acceptance_probability"]
    checks.append(Check("entanglement distribution accepts with probability 1/2",
                        _close(acc, 0.5), f"acceptance = {acc}"))
    worst_e = 1.0
    for b in res.details["branches"]:
        if b["accepted"]:
            worst_e = min(worst_e, fock.entanglement_entropy(b["state"], list(b["remote"])))
    checks.append(Check("accepted branch carries 1 bit of entanglement",
                        abs(worst_e - 1.0) <= 1e-8, f"entropy = {worst_e:.12f}"))
    worst_r = 0.0
    for b in res.details["branches"]:
        if b["parity"] == 0:
            worst_r = max(worst_r, fock.entanglement_entropy(b["state"], list(b["remote"])))
    checks.append(Check("rejected branch is separable",
                        worst_r <= 1e-8, f"max entropy = {worst_r:.2e}"))
    return checks


# -- criterion 9: fan-out counter ---------------------------------------------


def criterion_09_fanout():
    worst, bound_ok = 0.0, True
    for k in range(1, 5):
        for n in (4, 10, 16, 32):
            _, mis = measure.fanout_count(number_state((k,)), 0, n)
            falling = math.prod(range(n, n - k, -1))
            exact = 1 - falling / n ** k
            worst = max(worst, abs(mis - exact))
            bound_ok = bound_ok and mis <= k * (k - 1) / (2 * n) + TOL
    return [
        Check("fan-out misdetection equals 1 - (N)_k / N^k (k <= 4, N <= 32)",
              worst <= TOL, f"max deviation {worst:.2e}"),
        Check("fan-out misdetection never exceeds k(k-1)/2N", bound_ok),
    ]


# -- criterion 10: independent oracles -----------------------------------------


def _occupations(modes, max_total):
    for total in range(max_total + 1):
        for combo in itertools.combinations_with_replacement(range(modes), total):
            occ = [0] * modes
            for c in combo:
                occ[c] += 1
            yield tuple(occ)


def criterion_10_oracles():
    checks = []
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        u = optics.random_unitary(m, rng)
        occs = list(_occupations(m, 3))
        for occ_in in occs:
            evolved = optics.apply_unitary(number_state(occ_in), u)
            for occ_out in occs:
                if sum(occ_out) != sum(occ_in):
                    continue
                perm_amp = optics.transition_amplitude(u, occ_in, occ_out)
                worst = max(worst, abs(perm_amp - evolved.amplitude(occ_out)))
    checks.append(Check("permanent amplitudes match multinomial expansion",
                        worst <= TOL, f"max deviation {worst:.2e}"))
    worst = 0.0
    for r in (0.1, 0.3, 0.5):
        p = source.SqueezeParam(r, cutoff=20)
        closed = source.two_mode_squeezed_vacuum(p)
        oracle = source.squeezed_vacuum_by_exponentiation(p)
        for nn in range(p.cutoff + 1):
            mapped = (-1j) ** nn * closed.amplitude((nn, nn))
            worst = max(worst, abs(mapped - oracle.amplitude((nn, nn))))
    checks.append(Check("squeezer closed form matches Hamiltonian exponentiation",
                        worst <= 1e-8, f"max deviation {worst:.2e}"))
    return checks


# -- criterion 11: decomposition round trip ------------------------------------


def criterion_11_reck():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        u = optics.random_unitary(m, rng)
        seq = optics.decompose_reck(u)
        redone = optics.compose(seq)
        worst = max(worst, float(np.abs(redone.matrix - u.matrix).max()))
    return [Check("Reck decomposition round-trips 50 random unitaries (m <= 6)",
                  worst <= TOL, f"max residual {worst:.2e}")]


# -- criterion 12: heralded source ----------------------------------------------


def criterion_12_source():
    checks = []
    _, _, fid = source.heralded_single_photon(source.SqueezeParam(0.3), measure.Counter())
    checks.append(Check("counter-heralded single photon has fidelity 1",
                        abs(fid - 1.0) <= 1e-12, f"fidelity = {fid}"))
    fids = []
    for r in (0.5, 0.3, 0.1, 0.05):
        _, _, f = source.heralded_single_photon(source.SqueezeParam(r), measure.Bucket())
        fids.append(f)
    increasing = all(b > a for a, b in zip(fids, fids[1:]))
    checks.append(Check("bucket-heralded fidelity increases as squeezing weakens",
                        increasing and fids[-1] > 0.997,
                        f"fidelities = {[round(f, 6) for f in fids]}"))
    return checks


# -- criterion 13: Monte-Carlo consistency --------------------------------------


def criterion_13_monte_carlo():
    checks = []
    plan = [("ns1", 100_000, 131), ("csign_ns", 200_000, 132), ("teleport", 100_000, 133)]
    for name, trials, seed in plan:
        trial = costs.make_trial(name, n=3)
        stats = costs.monte_carlo(trial, trials, seed)
        p = trial.analytic
        sigma = math.sqrt(p * (1 - p) / trials)
        ok = abs(stats.rate - p) <= 3 * sigma
        checks.append(Check(f"monte-carlo {name} within 3 sigma of {p:.6g}",
                            ok, f"rate = {stats.rate:.6f}, 3s = {3 * sigma:.6f}"))
    return checks


# -- criterion 14: preparation-cost recursion ------------------------------------


def criterion_14_recursion():
    table = costs.s_recursion_table(400)
    fits = table.fits()
    sub = fits["sqrt_n_log_n"] < fits["linear_n"]
    cross = table.crossover()
    ratio_early = table.log_s[50] / 50
    ratio_late = table.log_s[400] / 400
    return [
        Check("recursion table fits c*sqrt(n)*log(n) better than linear growth",
              sub, f"residuals: sqrt model {fits['sqrt_n_log_n']:.3f}, linear {fits['linear_n']:.3f}"),
        Check("recursion bound crosses below the naive 4^n model",
              cross is not None and table.log_s[400] < table.log_naive[400],
              f"crossover at n = {cross}"),
        Check("log S(n)/n decreases (subexponential growth)",
              ratio_late < ratio_early,
              f"log S/n: {ratio_early:.3f} at 50 -> {ratio_late:.3f} at 400"),
    ]


CRITERIA = {
    1: criterion_01_ns1,
    2: criterion_02_csign_ns,
    3: criterion_03_b4prime,
    4: criterion_04_bm1_teleport,
    5: criterion_05_teleport_tn,
    6: criterion_06_csign_teleported,
    7: criterion_07_tp_preparation,
    8: criterion_08_parity,
    9: criterion_09_fanout,
    10: criterion_10_oracles,
    11: criterion_11_reck,
    12: criterion_12_source,
    13: criterion_13_monte_carlo,
    14: criterion_14_recursion,
}

SUITES = {
    "probabilities": [1, 2, 3, 4, 5, 6, 8, 9, 13],
    "oracles": [10, 11],
    "states": [3, 7, 12],
    "all": sorted(CRITERIA),
}


def run_suite(name: str):
    """Run a named suite; returns (checks, all_passed)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = []
    for num in SUITES[name]:
        checks.extend(CRITERIA[num]())
    return checks, all(c.passed for c in checks)
