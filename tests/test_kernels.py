"""Independent checks of the number-basis kernels."""

import gc
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockworks._backend import kernels as KERNELS
from fockworks._kernels_py import _sqrt_factorials
from fockworks import costs, measure, optics
from fockworks.costs import encode_single_rail
from fockworks.fock import BudgetExceeded, FockState, number_state, tensor
from fockworks.optics import (
    BeamSplitter,
    PhaseShifter,
    apply_unitary,
    element_matrix,
    embed,
    fourier_matrix,
    random_unitary,
    transition_amplitude,
)
from fockworks.protocols import BosonicQubit, csign_teleported, encode_qubit, teleport_tn

# one kernel implementation; its name stays in the test ids
ONE_KERNEL = pytest.mark.parametrize("kernels", [KERNELS], ids=lambda k: k.BACKEND)


def permanent_by_enumeration(mat):
    # independent of Glynn: direct sum over permutations
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
        # blocks of 4 sign vectors: the table covers 3 rows, and each row
        # past them doubles the blocks of the walk; a permanent of at most 3
        # rows is one expression over the table and walks no block
        blocks = []
        walk = kernels._glynn_blocks

        def counted(mat):
            for sums, weights in walk(mat):
                blocks.append((len(mat), sums.shape[1]))
                yield sums, weights

        monkeypatch.setattr(kernels, "_SUBSET_BLOCK", 4)
        monkeypatch.setattr(kernels, "_glynn_blocks", counted)
        mat = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        assert abs(kernels.permanent(mat) - permanent_by_enumeration(mat)) < 1e-10
        minors = kernels.permanent_minors(mat[1:])
        for l in range(k):
            want = permanent_by_enumeration(np.delete(mat[1:], l, axis=1))
            assert abs(minors[l] - want) < 1e-10 * max(1.0, abs(want))
        assert all(size <= 4 for _, size in blocks)
        walked = [r for r, _ in blocks]
        assert walked.count(k) == (2 ** (k - 3) if k > 3 else 0)
        assert walked.count(k - 1) == max(1, 2 ** (k - 4))

    def test_twenty_rows_keep_their_precision_and_memory_bound(self, kernels):
        # 2^19 sign vectors walked in eight blocks; the sign table is built
        # inside the measurement
        kernels._signs.cache_clear()
        tracemalloc.start()
        try:
            value = kernels.permanent(np.ones((20, 20), dtype=complex))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value / math.factorial(20) - 1) < 1e-12
        assert peak < 64 * 2**20


@st.composite
def square_matrices(draw):
    """A k x k complex Gaussian matrix, k = 1..6, and a row and a column
    permutation of it."""
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return mat, draw(st.permutations(range(k))), draw(st.permutations(range(k)))


@ONE_KERNEL
class TestPermanentInvariants:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_minors_expand_the_permanent_and_permutations_keep_it(self, kernels, case):
        mat, row_order, col_order = case
        value = kernels.permanent(mat)
        assert abs(mat[-1] @ kernels.permanent_minors(mat[:-1]) - value) < 1e-10
        assert abs(kernels.permanent(mat[row_order][:, col_order]) - value) < 1e-10


@st.composite
def zeroed_matrices(draw):
    """An r x r complex Gaussian matrix, r = 0..8, some of whose entries are
    exact zeros, each part +0.0 or -0.0."""
    r = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    zeros = [None, complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for i, zero in enumerate(draw(st.lists(st.sampled_from(zeros), min_size=r * r, max_size=r * r))):
        if zero is not None:
            mat.flat[i] = zero
    return mat


class TestSmallPermanent:
    @settings(max_examples=200, deadline=None)
    @given(zeroed_matrices())
    def test_one_expression_has_the_walks_bits(self, mat):
        # the walk's sum, 0 + its one block: a -0.0 part comes out +0.0
        walked = complex(sum(np.multiply.reduce(sums, axis=0) @ w for sums, w in KERNELS._glynn_blocks(mat)))
        value = KERNELS.permanent(mat)
        assert (value.real.hex(), value.imag.hex()) == (walked.real.hex(), walked.imag.hex())


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
        # Bunched outputs are where a permanent's sum cancels most (Ryser's
        # lost eight digits here); Glynn's stays near 1e-13
        u = element_matrix(BeamSplitter(0, 1, 0.3)) @ fourier_matrix(1)
        evolved = apply_unitary(number_state((9, 7)), u)
        for a in range(17):
            out = (a, 16 - a)
            assert abs(transition_amplitude(u, (9, 7), out) - evolved.amplitude(out)) < 1e-10

    def test_a_walk_past_the_budget_is_refused_before_the_permanent(self, monkeypatch):
        # r photons walk 2^(r - 1) sign vectors: 21 photons take 2^20, within
        # MAX_EVOLVED_TERMS; from 22 on the oracle refuses, naming the photons
        walked = []
        monkeypatch.setattr(KERNELS, "permanent", lambda mat: walked.append(len(mat)) or 0j)
        u = element_matrix(BeamSplitter(0, 1, 0.3))
        assert transition_amplitude(u, (21, 0), (0, 21)) == 0j and walked == [21]
        for photons in (22, 300, 2**62):
            with pytest.raises(BudgetExceeded, match=f"^{photons} photons"):
                transition_amplitude(u, (photons, 0), (1, photons - 1))
        assert walked == [21]


def _by_permanent(u, occ_in, occ_out):
    """<out|U|in> as the permanent of the repeated submatrix over the scale."""
    scale = math.prod(math.sqrt(math.factorial(k)) for k in occ_in + occ_out)
    return KERNELS.permanent(u.matrix.repeat(occ_out, axis=0).repeat(occ_in, axis=1)) / scale


@st.composite
def _drawn_occupations(draw, m, photons):
    """An occupation of ``photons`` on ``m`` modes."""
    modes = draw(st.lists(st.integers(0, m - 1), min_size=photons, max_size=photons))
    return tuple(modes.count(j) for j in range(m))


class TestSharedSums:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_interleaved_unitaries_and_patterns_use_their_own_sums(self, data):
        # two unitaries share each pattern and the calls hop between them and
        # between patterns, so a stale slot would give a wrong amplitude
        m, photons = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        unitaries = [random_unitary(m, rng) for _ in range(2)]
        patterns = [data.draw(_drawn_occupations(m, photons)) for _ in range(2)]
        calls = data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                             _drawn_occupations(m, photons)), min_size=1, max_size=12))
        for which, pattern, occ_in in calls:
            u, occ_out = unitaries[which], patterns[pattern]
            want = _by_permanent(u, occ_in, occ_out)
            assert abs(transition_amplitude(u, occ_in, occ_out) - want) < 1e-12
            assert abs(transition_amplitude(u, occ_out, occ_in) - _by_permanent(u, occ_out, occ_in)) < 1e-12

    def test_sums_past_two_to_the_sixteen_columns_take_the_permanent(self, monkeypatch):
        # m modes of r photons hold m * 2^(r - 1) sums: 2 modes share them up
        # to 16 photons
        walked, permanent = [], KERNELS.permanent
        monkeypatch.setattr(KERNELS, "permanent", lambda mat: walked.append(len(mat)) or permanent(mat))
        u = element_matrix(BeamSplitter(0, 1, 0.3))
        for occ_in, occ_out in [((9, 7), (8, 8)), ((9, 8), (8, 9)), ((9, 9), (8, 10))]:
            transition_amplitude(u, occ_in, occ_out)
        assert walked == [17, 18]

    def test_one_slot_holds_the_last_pattern(self, rng):
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        transition_amplitude(u, (1, 2, 0), (0, 1, 2))
        transition_amplitude(v, (1, 2, 0), (3, 0, 0))
        held = optics._SUMS
        assert held[0] is v and held[1] == (3, 0, 0) and held[2].shape == (3, 4)


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

    def test_thirty_two_modes_keep_the_norm(self, kernels):
        # 32 modes of 2 photons: the rank tables have no width limit
        u = fourier_matrix(31).matrix
        occ = tuple([2] + [0] * 31)
        out = kernels.expand_basis_state(u, occ)
        assert abs(sum(abs(a) ** 2 for a in out.values()) - 1) < 1e-10


def _loop(u, occ):
    """U|occ> expanded one photon at a time in a dict of integer-packed
    occupation keys, skipping the exact zeros of ``u``: the reference the
    kernel's two forms are checked against."""
    m = len(occ)
    total = sum(occ)
    sqrt_fact = _sqrt_factorials(total)
    bits = max(total.bit_length(), 1)
    mask = (1 << bits) - 1
    scale = 1.0
    for n_l in occ:
        scale *= sqrt_fact[n_l]
    current = {0: 1.0 + 0.0j}
    for l in range(m):
        col = [(1 << (bits * j), complex(u[j][l])) for j in range(m) if u[j][l] != 0]
        for _ in range(occ[l]):
            nxt = {}
            for key, amp in current.items():
                for step, c in col:
                    nxt[key + step] = nxt.get(key + step, 0.0 + 0.0j) + amp * c
            current = nxt
    out = {}
    for key, amp in current.items():
        factor = 1.0
        counts = []
        for _ in range(m):
            counts.append(key & mask)
            factor *= sqrt_fact[key & mask]
            key >>= bits
        out[tuple(counts)] = amp * (factor / scale)
    return out


def _bits_of(row):
    """A dict's outputs in order, with float.hex of each amplitude."""
    return [(out, a.real.hex(), a.imag.hex()) for out, a in row.items()]


def _loop_bits(u, occ):
    """The reference loop's outputs in order, as ``_bits_of`` lists them."""
    return _bits_of(_loop(u, occ))


def _dict_bits(u, occ):
    """The dict form's outputs in order, as ``_bits_of`` lists them."""
    return _bits_of(KERNELS.expand_basis_state(u, occ))


def _array_bits(u, occs):
    """The array form of all ``occs`` at once, one row per occupation, as
    ``_dict_bits`` lists it."""
    counts, re, im = KERNELS.expand_basis_state(u, occs, arrays=True)
    outs = list(map(tuple, counts.tolist()))
    return [[(out, r.hex(), i.hex()) for out, r, i in zip(outs, row_re, row_im)]
            for row_re, row_im in zip(re.tolist(), im.tolist())]


@st.composite
def batches(draw):
    """An m-mode Haar or Fourier matrix, m = 1..9, and one to three distinct
    occupations of one photon total, 0..8."""
    m, total = draw(st.integers(1, 9)), draw(st.integers(0, 8))
    occupation = st.lists(st.integers(0, m - 1), min_size=total, max_size=total).map(
        lambda where: tuple(where.count(j) for j in range(m)))
    occs = draw(st.lists(occupation, min_size=1, max_size=3, unique=True))
    if m > 1 and draw(st.booleans()):
        return fourier_matrix(m - 1).matrix, occs
    return random_unitary(m, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).matrix, occs


def _zero_columns(zero):
    """A unitary whose column 0 holds no zero and whose column 1 holds
    ``zero`` (0.0, -0.0 or complex(-0.0, -0.0))."""
    return np.array([[3**-0.5, 2**-0.5, 6**-0.5],
                     [3**-0.5, -(2**-0.5), 6**-0.5],
                     [3**-0.5, zero, -2 * 6**-0.5]], dtype=complex)


class TestRankTables:
    """A level's ranks are the lexicographic order of the output multisets,
    built from their closed form: no packed key, so no width limit."""

    def test_outputs_are_the_multisets_in_lexicographic_order(self, empty_rows):
        # (32, 4) and (70, 2) would need 96 and 140 bits as packed keys
        for m, t in [(m, t) for m in range(1, 9) for t in range(7)] + [(32, 4), (70, 2)]:
            counts = KERNELS.outputs(m, t)
            assert counts.dtype == np.min_scalar_type(t)
            assert [tuple(np.repeat(np.arange(m), row)) for row in counts.tolist()] == list(
                itertools.combinations_with_replacement(range(m), t)), (m, t)

    @pytest.mark.parametrize("m, t", [(1, 5), (3, 4), (5, 3), (32, 3)])
    def test_a_child_is_its_parent_plus_one_photon(self, empty_rows, m, t):
        below = KERNELS.outputs(m, t - 1)
        child, counts = KERNELS._level(m, t, below)
        assert child.dtype == np.int32 and child.shape == (m, len(below))
        for k in range(m):
            grown = below.astype(int)
            grown[:, m - 1 - k] += 1
            assert (counts[child[k]] == grown).all()


class TestArrayExpansion:
    """The array form expands occupations of one photon total together,
    one np.bincount per photon step through cached rank tables."""

    @settings(max_examples=80, deadline=None)
    @given(batches())
    def test_batched_arrays_equal_the_dicts_bit_for_bit(self, batch):
        # the reference loop, the dict form and the array form: one order, one set of bits
        u, occs = batch
        reference = [_loop_bits(u, occ) for occ in occs]
        assert [_dict_bits(u, occ) for occ in occs] == reference
        assert _array_bits(u, occs) == reference

    @pytest.mark.parametrize("zero", [0.0, -0.0, complex(-0.0, -0.0)])
    def test_a_zero_in_a_filled_column_is_refused(self, zero):
        u = _zero_columns(zero)
        with pytest.raises(ValueError, match="exact zero"):
            KERNELS.expand_basis_state(u, [(1, 1, 0)], arrays=True)
        # a zero in a column no photon enters changes nothing
        assert _array_bits(u, [(3, 0, 0)]) == [_dict_bits(u, (3, 0, 0))]

    def test_mixed_photon_totals_are_refused(self):
        with pytest.raises(ValueError, match="same photon total"):
            KERNELS.expand_basis_state(np.eye(2, dtype=complex), [(1, 0), (1, 1)], arrays=True)

    def test_a_warm_expansion_builds_no_table(self, empty_rows, table_builds, rng):
        u, occs = random_unitary(4, rng).matrix, [(2, 1, 0, 1), (0, 0, 4, 0)]
        cold = _array_bits(u, occs)
        assert table_builds == [(4, t) for t in range(1, 5)]
        table_builds.clear()
        assert _array_bits(u, occs) == cold and not table_builds

    def test_the_tables_stay_within_the_one_budget(self, empty_rows, rng):
        # tables are held from their first request, in the store and under
        # the budget that rows and plans share: least recently used dropped
        u = random_unitary(3, rng).matrix
        cases = [[(2, 1, 0)], [(1, 1, 1), (0, 0, 3)], [(6, 0, 1)], [(1, 0, 0)]]
        expected = [_array_bits(u, occs) for occs in cases]
        tables = {key: KERNELS._floats(key, value) for key, value in KERNELS._ROWS.items() if len(key) == 2}
        assert set(tables) == {(3, t) for t in range(1, 8)}
        budget = tables[3, 1] + tables[3, 2] + 2 * _table()
        empty_rows(floats=budget)
        for _ in range(2):
            assert [_array_bits(u, occs) for occs in cases] == expected
            assert _held() == KERNELS._row_floats <= budget - _table()
        # the last case read level 1 alone: it is held, and levels 2..7 took turns
        assert (3, 1) in KERNELS._ROWS and not set(tables) <= set(KERNELS._ROWS)

    def test_a_value_past_the_budget_is_not_held(self, empty_rows, rng):
        # 4 photons on 9 modes: 495 outputs of a 9-tuple and a complex each,
        # past a budget of 5,000 floats, so the row is computed at each
        # request while its tables, each within the budget, are held; a
        # table past the budget is built for its call alone
        u, occ = random_unitary(9, rng).matrix, (2, 1, 0, 1, 0, 0, 0, 0, 0)
        empty_rows(5000)
        cold = _dict_bits(u, occ)
        for _ in range(2):
            assert _dict_bits(u, occ) == cold
        assert set(KERNELS._ROWS) == {(9, t) for t in range(1, 5)}
        level = KERNELS._floats((9, 4), KERNELS._ROWS[9, 4])
        empty_rows(level - 1)
        for _ in range(2):
            assert _dict_bits(u, occ) == cold
        assert (9, 4) not in KERNELS._ROWS and (9, 3) in KERNELS._ROWS
        assert _held() == KERNELS._row_floats < level


def _held():
    """The floats the store holds, counted from its values and keys as
    ``sys.getsizeof`` measures them: an array row's pair and arrays, a dict
    row's dict and every entry's tuple and complex, the tuples and arrays of
    a plan, a rank table and a multiport, and each key's objects but the
    shared dtype, the small ints and the multiport's name."""
    floats = 0
    for key, row in KERNELS._ROWS.items():
        if key not in _row_keys():  # a plan, a table (modes, photons) or a multiport ("fourier", n)
            size = _tuples_and_arrays(key) + _tuples_and_arrays(row)
        else:
            (shape, _, data), occ, arrays = key
            size = sum(map(sys.getsizeof, (key, key[0], shape, data, occ)))
            if arrays:
                size += sum(map(sys.getsizeof, (row, *row)))
            else:
                size += sys.getsizeof(row) + sum(map(sys.getsizeof, itertools.chain(*row.items())))
        floats += math.ceil(size / 8)
    return floats


def _row_keys():
    """The keys of the expansion rows the store holds, least recently used
    first: (unitary, occupation, arrays), among the other values' keys."""
    return [key for key in KERNELS._ROWS if len(key) == 3]


def _tuples_and_arrays(value):
    """``sys.getsizeof`` of every tuple, array and bytes object in ``value``."""
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(_tuples_and_arrays, value))
    return sys.getsizeof(value) if isinstance(value, (bytes, np.ndarray)) else 0


def _table():
    """The floats the store's own table takes, as ``sys.getsizeof`` measures it."""
    return sys.getsizeof(KERNELS._ROWS) // 8


def _computed(monkeypatch):
    """Record the occupations each expansion computes, in either form (the
    dict form computes its row with ``_expand_arrays`` too), and the calls
    of the entry point."""
    rows, calls = [], []
    arrays, expand = KERNELS._expand_arrays, KERNELS.expand_basis_state
    monkeypatch.setattr(KERNELS, "_expand_arrays",
                        lambda u, occs: rows.extend(map(tuple, occs.tolist())) or arrays(u, occs))
    monkeypatch.setattr(KERNELS, "expand_basis_state",
                        lambda *a, **k: calls.append(1) or expand(*a, **k))
    return rows, calls


@st.composite
def zero_columns(draw):
    """An m-mode unitary, m = 1..6, that may hold exact zeros in every
    column (a Haar unitary of k <= m modes beside the identity of the
    others, in shuffled modes, its zeros -0.0 when negated), and an
    occupation of 0..6 photons."""
    m = draw(st.integers(1, 6))
    u = np.eye(m, dtype=complex)
    k = draw(st.integers(1, m))
    u[:k, :k] = random_unitary(k, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).matrix
    modes = draw(st.permutations(range(m)))
    u = u[modes][:, modes] * draw(st.sampled_from([1, -1]))
    total = draw(st.integers(0, 6))
    where = draw(st.lists(st.integers(0, m - 1), min_size=total, max_size=total))
    return u, tuple(where.count(j) for j in range(m))


@st.composite
def splitter_networks(draw):
    """An m-mode product of one to three beam splitters, m = 2..6, each
    followed by a phase on one of its modes, on mode pairs that may
    overlap: exact zeros that are no block of the identity, as ``compose``
    leaves them; and an occupation of 0..6 photons."""
    m = draw(st.integers(2, 6))
    u = np.eye(m, dtype=complex)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        u = embed(BeamSplitter(a, b, draw(st.floats(0.1, 1.4))), m).matrix @ u
        u = embed(PhaseShifter(a, draw(st.floats(0.0, 6.0))), m).matrix @ u
    total = draw(st.integers(0, 6))
    where = draw(st.lists(st.integers(0, m - 1), min_size=total, max_size=total))
    return u, tuple(where.count(j) for j in range(m))


class TestExpansionRows:
    """Expansion rows of either form are stored on their second request
    and reused: the same bits, read-only, within the one budget."""

    @settings(max_examples=60, deadline=None)
    @given(batches(), st.data())
    def test_warm_rows_equal_cold_rows_bit_for_bit(self, batch, data):
        u, occs = batch
        cold = [_dict_bits(u, occ) for occ in occs]
        for _ in range(3):  # computed, stored, read: in the order drawn and with other rows
            shuffled = data.draw(st.permutations(occs))
            assert _array_bits(u, shuffled) == [cold[occs.index(occ)] for occ in shuffled]
        counts, _, _ = KERNELS.expand_basis_state(u, occs, arrays=True)
        assert counts.dtype == KERNELS._expand_arrays(u, np.array(occs))[0].dtype

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(zero_columns(), splitter_networks()))
    def test_dict_rows_with_exact_zeros_equal_the_loop_bit_for_bit(self, case):
        # the dict form multiplies the zeros in, where the loop skips them:
        # it lists the outputs the loop reaches, in the loop's order, each
        # summed in that order
        u, occ = case
        assert _bits_of(KERNELS._expand_dict(u, occ)) == _loop_bits(u, occ)

    @settings(max_examples=80, deadline=None)
    @given(zero_columns())
    def test_warm_dict_rows_equal_cold_rows_bit_for_bit(self, case):
        u, occ = case
        cold = [(out, a.real.hex(), a.imag.hex()) for out, a in KERNELS._expand_dict(u, occ).items()]
        for _ in range(3):  # computed, stored, read
            assert _dict_bits(u, occ) == cold
        assert (KERNELS._matrix(u), occ, False) in KERNELS._ROWS

    def test_a_row_is_stored_on_its_second_request(self, empty_rows, monkeypatch, rng):
        u, occs = random_unitary(4, rng).matrix, [(2, 1, 0, 1), (0, 0, 4, 0)]
        computed, _ = _computed(monkeypatch)
        for held in (0, 2, 2):
            cold = _array_bits(u, occs)
            assert len(_row_keys()) == held
        assert computed == occs * 2  # the third request reads both rows
        assert _array_bits(u, [(1, 1, 1, 1)] + occs) == _array_bits(u, [(1, 1, 1, 1)]) + cold
        assert computed[4:] == [(1, 1, 1, 1)] * 2

    def test_a_dict_row_is_stored_on_its_second_request(self, empty_rows, monkeypatch, rng):
        u, occ = random_unitary(3, rng).matrix, (1, 2, 0)
        computed, calls = _computed(monkeypatch)
        cold = _dict_bits(u, occ)
        assert not _row_keys() and KERNELS._recent.any()
        for _ in range(2):
            assert _dict_bits(u, occ) == cold
            assert _row_keys() == [(KERNELS._matrix(u), occ, False)]
        assert computed == [occ] * 2 and len(calls) == 3  # the third request reads the row
        assert KERNELS._row_floats == _held() > 0
        # the array form of the same occupation is a row of its own
        for _ in range(2):
            assert _array_bits(u, [occ]) == [cold]
        assert [arrays for _, _, arrays in _row_keys()] == [False, True]

    def test_a_warm_teleportation_computes_no_row(self, empty_rows, monkeypatch):
        inputs = [encode_single_rail(a, b) for a, b in ((0.6, 0.8), (0.8, -0.6j), (0.28, 0.96j))]
        for state in inputs[:2]:
            teleport_tn(state, 0, 8)
        computed, calls = _computed(monkeypatch)
        warm = teleport_tn(inputs[2], 0, 8)
        assert computed == [] and len(calls) == 10  # one call per photon total, 0..9
        monkeypatch.undo()
        empty_rows()
        cold = teleport_tn(inputs[2], 0, 8)
        assert len(warm.details["branches"]) == len(cold.details["branches"])
        assert _state_bits(warm.output_state) == _state_bits(cold.output_state)
        assert [b["p"].hex() for b in warm.details["branches"]] == [
            b["p"].hex() for b in cold.details["branches"]]

    def test_warm_exact_gates_build_nothing_and_drop_nothing(self, empty_rows, monkeypatch,
                                                             table_builds, pass_counts):
        # the exact Fourier detections of teleport_tn n=8 and csign_teleported
        # n=4: after two rounds, the one store holds within its budget every
        # table, row and plan that a third round reads
        pair = tensor(encode_qubit(0.6, 0.8j), encode_qubit(0.28j, 0.96))
        gates = [lambda: teleport_tn(encode_single_rail(0.6, 0.8j), 0, 8),
                 lambda: csign_teleported(pair, BosonicQubit(0, 1), BosonicQubit(2, 3), 4)]
        for _ in range(2):
            for gate in gates:
                gate()
        held = set(KERNELS._ROWS)
        table_builds.clear()
        pass_counts()
        computed, _ = _computed(monkeypatch)
        for gate in gates:
            gate()
        assert not table_builds and computed == [] and pass_counts()[1] == 0
        assert held <= set(KERNELS._ROWS)
        assert KERNELS._row_floats + _table() <= KERNELS._ROW_FLOATS

    def test_a_multiport_sweep_stays_within_the_budget(self, empty_rows):
        # each multiport is held from its first request, charged by its
        # matrix; past the budget the least recently used are dropped
        for n in range(1, 301):
            assert fourier_matrix(n) is fourier_matrix(n)
        assert ("fourier", 300) in KERNELS._ROWS and ("fourier", 1) not in KERNELS._ROWS
        assert _held() == KERNELS._row_floats <= KERNELS._ROW_FLOATS - _table()

    def test_a_warm_trial_set_up_computes_no_row(self, empty_rows, monkeypatch):
        for _ in range(2):
            for name in ("ns1", "csign_ns", "teleport"):
                costs.make_trial(name, n=3)
        computed, calls = _computed(monkeypatch)
        for name in ("ns1", "csign_ns", "teleport"):
            costs.make_trial(name, n=3)
        assert computed == [] and calls
        assert not any(arrays for _, _, arrays in _row_keys())  # small evolutions take dicts

    def test_a_unitary_seen_once_takes_no_memory(self, empty_rows):
        rng = np.random.default_rng(7)
        basis = [c for c in itertools.product(range(6), repeat=8) if sum(c) == 5]
        picks = rng.choice(len(basis), 40, replace=False)
        state = FockState(8, {basis[j]: complex(*rng.normal(size=2)) for j in picks})
        small = FockState(3, {(1, 1, 0): 0.6, (0, 2, 1): 0.8})
        for _ in range(3):  # each under a fresh Haar unitary, as the evolution benchmark runs
            apply_unitary(state, random_unitary(8, rng))
            apply_unitary(small, random_unitary(3, rng))  # the dict form
        assert KERNELS._recent.any()
        # no row: the store holds the rank tables the two sizes share
        assert set(KERNELS._ROWS) == {(m, t) for m, top in ((8, 5), (3, 3)) for t in range(1, top + 1)}
        assert KERNELS._row_floats == _held()
        assert KERNELS._recent.shape == (KERNELS._RECENT_KEYS,)

    def test_the_rows_stay_within_their_budget(self, empty_rows, rng):
        u = random_unitary(4, rng).matrix
        cases = [[(2, 0, 0, 0)], [(1, 1, 0, 0), (0, 0, 1, 1)], [(3, 0, 0, 0)], [(1, 1, 1, 0)],
                 [(0, 2, 0, 0)], [(2, 0, 0, 0)], [(0, 0, 0, 3)]]
        expected = [_array_bits(u, occs) for occs in cases]
        empty_rows(floats=1000)
        for _ in range(3):
            assert [_array_bits(u, occs) for occs in cases] == expected
            assert _held() == KERNELS._row_floats <= 1000 - _table()
        assert 0 < len(_row_keys()) < 8
        # a row past the whole budget is never stored
        empty_rows()
        for _ in range(2):
            _array_bits(u, [(0, 3, 0, 0)])
        (key,) = _row_keys()
        empty_rows(floats=KERNELS._floats(key, KERNELS._ROWS[key]) - 1)
        for _ in range(3):
            _array_bits(u, [(0, 3, 0, 0)])
        assert not _row_keys() and _held() == KERNELS._row_floats

    def test_mixed_rows_are_dropped_least_recently_used_first(self, empty_rows, rng):
        u = random_unitary(4, rng).matrix
        a, b, c = (2, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0)  # array rows
        d = (1, 1, 1, 0)  # a dict row

        def request(occ, arrays, times=1):
            for _ in range(times):
                if arrays:
                    assert _array_bits(u, [occ]) == [cold[occ]]
                else:
                    assert _dict_bits(u, occ) == cold[occ]

        cold = {occ: _dict_bits(u, occ) for occ in (a, b, c, d)}
        charge = {}
        for occ, arrays in ((a, True), (d, False), (b, True), (c, True)):
            empty_rows()
            request(occ, arrays, times=2)
            (key,) = _row_keys()
            charge[occ] = KERNELS._floats(key, KERNELS._ROWS[key])
        assert charge[d] > charge[b] == charge[c] > charge[a]
        empty_rows()
        request(a, True, times=2)
        request(d, False, times=2)
        request(b, True, times=2)
        # room for a, d, b, their three levels (each read as the rows are)
        # and the table that holds them all (measured before the store is
        # emptied), and not for c as well
        empty_rows(floats=KERNELS._row_floats + _table())
        request(a, True, times=2)
        request(d, False, times=2)
        request(b, True, times=2)
        assert [occ for _, occ, _ in _row_keys()] == [a, d, b]
        request(a, True)  # read: the dict row is now the least recently used
        request(c, True, times=2)
        assert [occ for _, occ, _ in _row_keys()] == [b, a, c]
        request(d, False, times=2)  # stored again, past the array row b
        assert [occ for _, occ, _ in _row_keys()] == [a, c, d]
        assert {(4, t) for t in range(1, 4)} <= set(KERNELS._ROWS)
        assert _held() == KERNELS._row_floats <= KERNELS._ROW_FLOATS - _table()

    def test_the_budget_bounds_the_memory_the_rows_take(self, empty_rows):
        # every row of 1-3 photons on 2-4 modes under 18 unitaries, each
        # requested twice, in either form: about four budgets' worth
        rng = np.random.default_rng(3)
        unitaries = [random_unitary(m, rng).matrix for m in (2, 3, 4) for _ in range(6)]
        cases = [(u, occ, arrays) for u in unitaries for t in (1, 2, 3)
                 for occ in itertools.islice(_occupations(len(u), t), 4) for arrays in (True, False)]
        empty_rows(floats=1 << 14)
        tracemalloc.start()
        try:
            gc.collect()  # empties the free lists, so that every object is traced
            base = tracemalloc.get_traced_memory()[0]
            for u, occ, arrays in cases:
                for _ in range(2):
                    KERNELS.expand_basis_state(u, [occ] if arrays else occ, arrays=arrays)
            gc.collect()
            taken = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        charged = KERNELS._row_floats + _table()
        assert {arrays for _, _, arrays in _row_keys()} == {True, False}
        assert _held() == KERNELS._row_floats and charged <= KERNELS._ROW_FLOATS
        # the trace sees the charge to within 1%: numpy's cache of small
        # shape buffers is not charged, and the caller's own occupation
        # tuple, which a dict row's key holds, is charged but not allocated here
        assert 0.95 * 8 * charged <= taken <= 1.01 * 8 * charged

    def test_the_budget_bounds_the_memory_plans_and_rows_take(self, empty_rows):
        # detection passes over 44 pairs of 5-mode states, each run twice:
        # a plan of 5,376 keys each (every term keeps a mode count of its
        # own), about four budgets' worth, and the rows of 48 sub-occupations
        u = random_unitary(4, np.random.default_rng(5))
        subs = list(itertools.islice(_occupations(4, 5), 48))
        batches = [[FockState(5, {sub + (k + 48 * j + i,): complex(1, i) for i, sub in enumerate(subs)})
                    for j in (0, 1)] for k in range(0, 44 * 96, 96)]
        empty_rows(floats=1 << 17)
        tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for states in batches:
                for _ in range(2):
                    list(measure._evolved_groups(states, u, [0, 1, 2, 3]))
            gc.collect()
            taken = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        charged = KERNELS._row_floats + _table()
        plans = sum(isinstance(key[0], bytes) for key in KERNELS._ROWS)
        assert 0 < plans < len(batches) / 2 and len(KERNELS._ROWS) > plans
        assert _held() == KERNELS._row_floats and charged <= KERNELS._ROW_FLOATS
        # within 1%, as for rows alone: a few small buffers per stored array
        # (numpy's shape and strides) and per entry are not charged
        assert 0.95 * 8 * charged <= taken <= 1.01 * 8 * charged

    def test_stored_rows_are_read_only(self, empty_rows, rng):
        u, occs = random_unitary(3, rng).matrix, [(1, 1, 0), (0, 2, 0)]
        for _ in range(2):
            KERNELS.expand_basis_state(u, occs, arrays=True)
        assert len(_row_keys()) == 2 and len(KERNELS._ROWS) == 4  # and levels 1 and 2
        for value in KERNELS._ROWS.values():  # a row's (re, im), a table's (child, counts)
            for array in value:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        # what a call returns is its own
        counts, re, im = KERNELS.expand_basis_state(u, occs, arrays=True)
        re[:] = 0.0
        assert _array_bits(u, occs) == [_dict_bits(u, occ) for occ in occs]

    def test_a_dict_row_rejects_writes(self, empty_rows, rng):
        u, occ = random_unitary(3, rng).matrix, (1, 1, 0)
        cold = _dict_bits(u, occ)
        for _ in range(3):  # computed, stored, read
            out = KERNELS.expand_basis_state(u, occ)
            with pytest.raises(TypeError):
                out[(2, 0, 0)] = 0j
            with pytest.raises(AttributeError):
                out.pop((2, 0, 0))
        assert len(_row_keys()) == 1 and _dict_bits(u, occ) == cold


def _occupations(m, t):
    """The occupations of ``t`` photons in ``m`` modes."""
    return (c for c in itertools.product(range(t + 1), repeat=m) if sum(c) == t)


def _rows_bits(counts, re, im):
    """``_expand_arrays``' result, one row per occupation, as ``_array_bits`` lists it."""
    outs = list(map(tuple, counts.tolist()))
    return [[(out, r.hex(), i.hex()) for out, r, i in zip(outs, row_re, row_im)]
            for row_re, row_im in zip(re.tolist(), im.tolist())]


def _stack(rng, m, t, owners):
    """A Haar unitary of ``m`` modes and ``owners`` distinct occupations of ``t`` photons."""
    basis = list(_occupations(m, t))
    picks = rng.choice(len(basis), owners, replace=False)
    return random_unitary(m, rng).matrix, np.array([basis[j] for j in picks])


class TestBlocks:
    """A stack's owners are expanded in blocks that fit the workspace of
    ``_STEP_BLOCK`` floats: their bits do not depend on the block."""

    # 7 occupations of 3 photons on 4 modes: the last step takes 3 * 4 * 10 =
    # 120 floats per owner, and the block sizes each scaling call reports
    @pytest.mark.parametrize("floats, blocks", [(120, [1] * 7), (240, [2, 2, 2, 1]), (360, [3, 3, 1]),
                                                (100, [1] * 7), (1 << 16, [7])],
                             ids=["one owner", "two", "uneven last", "owner wider than the block", "default"])
    def test_blocks_equal_the_loop_bit_for_bit(self, monkeypatch, rng, floats, blocks):
        u, occs = _stack(rng, 4, 3, 7)
        reference = [_loop_bits(u, occ) for occ in occs.tolist()]
        work, calls, scratch = KERNELS._WORK.floats, [], KERNELS._scratch
        monkeypatch.setattr(KERNELS, "_STEP_BLOCK", floats)
        monkeypatch.setattr(KERNELS, "_scratch", lambda size: calls.append(size) or scratch(size))
        assert _rows_bits(*KERNELS._expand_arrays(u, occs)) == reference
        # three steps and a scaling per block, 20 outputs per owner; the workspace is never grown
        assert [size // 20 for size in calls[3::4]] == blocks
        assert KERNELS._WORK.floats is work and len(work) == 1 << 16

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(zero_columns(), splitter_networks()), st.sampled_from([1, 12, 100]))
    def test_dict_rows_in_small_blocks_equal_the_loop_bit_for_bit(self, case, floats):
        # one owner with exact zeros, 0..6 photons, a vacuum sub-occupation
        # among them; 1 float fits no step, so every step allocates
        u, occ = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KERNELS, "_STEP_BLOCK", floats)
            assert _bits_of(KERNELS._expand_dict(u, occ)) == _loop_bits(u, occ)

    def test_a_vacuum_and_no_photons_in_small_blocks(self, monkeypatch, rng):
        u = random_unitary(3, rng).matrix
        monkeypatch.setattr(KERNELS, "_STEP_BLOCK", 1)
        # a vacuum's support is empty: the dict row of no mode
        assert _bits_of(KERNELS._expand_dict(u, (0, 0, 0))) == _loop_bits(u, (0, 0, 0))
        # t = 0: no step, one output per owner, in blocks of one
        assert _rows_bits(*KERNELS._expand_arrays(u, np.zeros((3, 3), dtype=np.int64))) == [
            _loop_bits(u, (0, 0, 0))] * 3

    def test_unheld_levels_in_blocks(self, empty_rows, monkeypatch, rng):
        # a budget of no float holds no table: each level is built for its call
        u, occs = _stack(rng, 4, 3, 7)
        empty_rows(floats=0)
        monkeypatch.setattr(KERNELS, "_STEP_BLOCK", 240)
        assert _rows_bits(*KERNELS._expand_arrays(u, occs)) == [
            _loop_bits(u, occ) for occ in occs.tolist()]
        assert not KERNELS._ROWS

    def test_two_threads_expand_their_own_stacks_with_the_serial_bits(self):
        rng = np.random.default_rng(11)
        stacks = [_stack(rng, 8, 5, 40) for _ in range(6)]
        serial = [_rows_bits(*KERNELS._expand_arrays(u, occs)) for u, occs in stacks]  # builds the tables
        results, works = {}, {}

        def run(i):
            works[i] = KERNELS._WORK.floats
            results[i] = [[_rows_bits(*KERNELS._expand_arrays(u, occs)) for u, occs in stacks[i::2]]
                          for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not np.shares_memory(works[0], works[1])
        assert results == {i: [serial[i::2]] * 3 for i in range(2)}

    def test_a_cold_stack_takes_its_outputs_and_a_fixed_slack(self, rng):
        """One cold expansion of 40 occupations of 5 photons on 8 modes (the
        stack of perfbench's ``evolution``) peaks at its two output arrays,
        506,880 bytes, and at most 320 KiB more: the sums of one block's last
        two steps and numpy's cast buffers (254 KiB here). The whole stack
        at once, the products and slots of every owner, peaked at 3,136,436
        bytes."""
        u, occs = _stack(rng, 8, 5, 40)
        KERNELS.outputs(8, 5)  # the rank tables, built outside the trace
        tracemalloc.start()
        try:
            counts, re, im = KERNELS._expand_arrays(u, occs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert re.nbytes + im.nbytes == 506_880
        assert peak <= re.nbytes + im.nbytes + 320 * 1024


def _state_bits(state):
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.terms()]


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
