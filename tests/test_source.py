import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockworks
from fockworks.fock import FockError
from fockworks.measure import Bucket, Counter
from fockworks.source import (
    SqueezeParam,
    heralded_single_photon,
    pair_amplitudes,
    squeezed_vacuum_by_exponentiation,
    two_mode_squeezed_vacuum,
)


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        s = two_mode_squeezed_vacuum(SqueezeParam(0.0))
        assert s.amplitude((0, 0)) == 1
        assert s.term_count() == 1

    def test_amplitude_ratio_is_tanh(self):
        s = two_mode_squeezed_vacuum(SqueezeParam(0.1))
        ratio = s.amplitude((1, 1)).real / s.amplitude((0, 0)).real
        assert abs(ratio - math.tanh(0.1)) < 1e-12

    def test_equal_occupation_support_only(self):
        s = two_mode_squeezed_vacuum(SqueezeParam(0.4))
        assert all(occ[0] == occ[1] for occ, _ in s.terms())

    def test_amplitudes_real_positive(self):
        s = two_mode_squeezed_vacuum(SqueezeParam(0.3))
        assert all(amp.imag == 0 and amp.real > 0 for _, amp in s.terms())

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(FockError):
            pair_amplitudes(SqueezeParam(0.5, cutoff=8))

    @pytest.mark.parametrize("r", [709.0, 711.0, 1e6, math.inf])
    def test_huge_squeezing_raises_the_cutoff_error(self, r):
        # cosh(r) overflows above r ~ 710.5; the tail check must still report
        with pytest.raises(FockError, match="tail weight"):
            pair_amplitudes(SqueezeParam(r))

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParam(-0.1)


class TestExponentiationOracle:
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5])
    def test_matches_closed_form(self, r):
        p = SqueezeParam(r, cutoff=20)
        closed = two_mode_squeezed_vacuum(p)
        oracle = squeezed_vacuum_by_exponentiation(p)
        # evolution convention puts (-i)^n on the n-pair amplitude
        for n in range(p.cutoff + 1):
            mapped = (-1j) ** n * closed.amplitude((n, n))
            assert abs(mapped - oracle.amplitude((n, n))) < 1e-8


class TestHeralding:
    def test_counter_herald_gives_exact_photon(self):
        prob, state, fid = heralded_single_photon(SqueezeParam(0.3), Counter())
        assert abs(fid - 1.0) < 1e-12
        assert abs(state.amplitude((1,))) == 1
        t = math.tanh(0.3)
        assert abs(prob - t * t * (1 - t * t)) < 1e-10

    def test_bucket_herald_probability(self):
        prob, _, _ = heralded_single_photon(SqueezeParam(0.2), Bucket())
        assert abs(prob - math.tanh(0.2) ** 2) < 1e-10

    def test_bucket_herald_probability_increases_with_r(self):
        probs = [heralded_single_photon(SqueezeParam(r), Bucket())[0]
                 for r in (0.05, 0.1, 0.3, 0.5)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_bucket_fidelity_formula(self):
        _, _, fid = heralded_single_photon(SqueezeParam(0.1), Bucket())
        assert abs(fid - (1 - math.tanh(0.1) ** 2)) < 1e-10

    def test_fidelity_increases_as_r_decreases(self):
        fids = [heralded_single_photon(SqueezeParam(r), Bucket())[2]
                for r in (0.5, 0.3, 0.1, 0.05)]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.997

    def test_bucket_below_counter(self):
        for r in (0.1, 0.3):
            _, _, f_bucket = heralded_single_photon(SqueezeParam(r), Bucket())
            _, _, f_counter = heralded_single_photon(SqueezeParam(r), Counter())
            assert f_bucket < f_counter == 1.0

    def test_zero_squeezing_signals_no_herald(self):
        prob, state, fid = heralded_single_photon(SqueezeParam(0.0), Bucket())
        assert prob == 0.0 and state is None


def test_import_loads_no_third_party_package_but_numpy():
    # in a fresh interpreter: the runtime dependency list is numpy alone
    src = str(Path(fockworks.__file__).resolve().parent.parent)
    code = ("import sys; before = set(sys.modules); import fockworks; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(' '.join(sorted(new - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["fockworks", "numpy"]
