"""Independent checks of the two number-basis kernels."""

import itertools
import math

import numpy as np
import pytest

from fockworks._backend import kernels as KERNELS
from fockworks._kernels_py import _sqrt_factorials
from fockworks.fock import number_state
from fockworks.optics import BeamSplitter, apply_unitary, element_matrix, fourier_matrix, random_unitary

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

    def test_all_ones(self, kernels):
        # permanent of the all-ones n x n matrix is n!
        assert abs(kernels.permanent(np.ones((5, 5), dtype=complex)) - math.factorial(5)) < 1e-9


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
