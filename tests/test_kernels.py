"""Independent checks of the number-basis kernels."""

import itertools
import math

import numpy as np
import pytest

from fockworks._backend import kernels as KERNELS
from fockworks._kernels_py import _sqrt_factorials
from fockworks.fock import number_state
from fockworks.optics import (
    BeamSplitter,
    apply_unitary,
    element_matrix,
    fourier_matrix,
    random_unitary,
    transition_amplitude,
)

# one kernel implementation; its name stays in the test ids
ONE_KERNEL = pytest.mark.parametrize("kernels", [KERNELS], ids=lambda k: k.BACKEND)


def permanent_by_enumeration(mat):
    # independent of Ryser: direct sum over permutations
    n = len(mat)
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= mat[i][j]
        total += prod
    return total


@ONE_KERNEL
class TestPermanent:
    def test_empty_matrix(self, kernels):
        assert kernels.permanent(np.zeros((0, 0), dtype=complex)) == 1

    def test_one_by_one(self, kernels):
        assert kernels.permanent(np.array([[2.5 + 1j]])) == 2.5 + 1j

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_enumeration(self, kernels, n, rng):
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(kernels.permanent(mat) - permanent_by_enumeration(mat)) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_column_deleted_minors_match_enumeration(self, kernels, k, rng):
        mat = rng.normal(size=(k - 1, k)) + 1j * rng.normal(size=(k - 1, k))
        minors = kernels.permanent_minors(mat)
        assert len(minors) == k
        for l in range(k):
            want = permanent_by_enumeration(np.delete(mat, l, axis=1))
            assert abs(minors[l] - want) < 1e-10 * max(1.0, abs(want))

    def test_all_ones(self, kernels):
        # permanent of the all-ones n x n matrix is n!
        assert abs(kernels.permanent(np.ones((5, 5), dtype=complex)) - math.factorial(5)) < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_blocks_of_subsets_match_enumeration(self, kernels, k, rng, monkeypatch):
        # blocks of 4 subsets: past 2 columns the subsets are walked block by block
        tables = []
        subsets = kernels._subsets.__wrapped__
        monkeypatch.setattr(kernels, "_SUBSET_BLOCK", 4)
        monkeypatch.setattr(kernels, "_subsets", lambda j: tables.append(j) or subsets(j))
        mat = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        assert abs(kernels.permanent(mat) - permanent_by_enumeration(mat)) < 1e-10
        minors = kernels.permanent_minors(mat[1:])
        for l in range(k):
            want = permanent_by_enumeration(np.delete(mat[1:], l, axis=1))
            assert abs(minors[l] - want) < 1e-10 * max(1.0, abs(want))
        assert tables and max(tables) == 2


class TestTransitionAmplitude:
    def test_the_oracle_never_expands(self, monkeypatch, rng):
        # transition_amplitude checks the expansion kernel, so it must not call it
        def refuse(*args, **kwargs):
            raise AssertionError("transition_amplitude called expand_basis_state")

        monkeypatch.setattr(KERNELS, "expand_basis_state", refuse)
        u = random_unitary(3, rng)
        for out in [(3, 0, 0), (1, 1, 1), (0, 2, 1), (2, 0, 0)]:
            transition_amplitude(u, (1, 2, 0), out)

    def test_sixteen_photons_match_the_expansion(self):
        # 16 photons on two modes: one 16 x 16 permanent per output pattern.
        # Ryser's alternating sum over 2^16 subsets cancels, most on bunched
        # outputs: the worst error here is 3.2e-9, at (13, 3)
        u = element_matrix(BeamSplitter(0, 1, 0.3)) @ fourier_matrix(1)
        evolved = apply_unitary(number_state((9, 7)), u)
        for a in range(17):
            out = (a, 16 - a)
            assert abs(transition_amplitude(u, (9, 7), out) - evolved.amplitude(out)) < 1e-8


@ONE_KERNEL
class TestExpansion:
    def test_identity_passthrough(self, kernels):
        out = kernels.expand_basis_state(np.eye(3, dtype=complex), (2, 0, 1))
        assert set(out) == {(2, 0, 1)}
        assert abs(out[(2, 0, 1)] - 1) < 1e-12

    def test_norm_preserved(self, kernels, rng):
        u = random_unitary(4, rng).matrix
        out = kernels.expand_basis_state(u, (2, 1, 0, 0))
        assert abs(sum(abs(a) ** 2 for a in out.values()) - 1) < 1e-12

    def test_photon_conservation(self, kernels, rng):
        u = random_unitary(3, rng).matrix
        out = kernels.expand_basis_state(u, (1, 2, 0))
        assert all(sum(occ) == 3 for occ in out)

    def test_wide_state_fallback_agrees(self, kernels):
        # 32 modes cannot pack into 64-bit keys; exercises the tuple path
        u = fourier_matrix(31).matrix
        occ = tuple([2] + [0] * 31)
        out = kernels.expand_basis_state(u, occ)
        assert abs(sum(abs(a) ** 2 for a in out.values()) - 1) < 1e-10


class TestLargeOccupations:
    @pytest.mark.parametrize("photons", [70, 150])
    def test_balanced_splitter_keeps_norm(self, photons):
        # the sqrt(k!) table grows past its first 64 entries
        out = apply_unitary(number_state((photons, 0)), element_matrix(BeamSplitter(0, 1, math.pi / 4)))
        assert out.total_photons() == {photons}
        assert abs(out.norm() - 1) < 1e-10

    def test_table_below_64_is_exact(self):
        table = _sqrt_factorials(100)
        assert table[:64] == [math.sqrt(math.factorial(k)) for k in range(64)]
        assert abs(table[100] / math.sqrt(math.factorial(100)) - 1) < 1e-12
