"""Number-basis kernels: the Ryser permanent, the permanents of
column-deleted minors, and the expansion of U|occ>.

The minors are one numpy pass over the column subsets, walked in blocks
past ``_SUBSET_BLOCK`` subsets; the permanent is their Laplace expansion
along the matrix's last row. The expansion runs in one of two forms with
the same bits: a dict loop on integer-packed occupation keys for one
occupation, and numpy steps (``arrays=True``) for all the occupations of
one photon total at once. The numpy form sorts nothing: each photon
step is one ``np.bincount`` through a cached rank table (``_level``),
which sums left to right from 0.0 in the dict loop's order, multiplying
complex numbers in CPython's order on separate real arrays. ``optics``
and ``measure`` reach the kernels through ``fockworks._backend.kernels``.
"""

import math
from functools import lru_cache

import numpy as np

BACKEND = "python"

_SQRT_FACT = [math.sqrt(math.factorial(k)) for k in range(64)]


def _sqrt_factorials(n):
    """sqrt(k!) for k = 0..n: the exact table, extended from lgamma past 64."""
    if n < len(_SQRT_FACT):
        return _SQRT_FACT
    return _SQRT_FACT + [math.exp(0.5 * math.lgamma(k + 1)) for k in range(len(_SQRT_FACT), n + 1)]


#: Most column subsets ``permanent_minors`` holds at once, a power of two;
#: larger matrices walk theirs in blocks of this many.
_SUBSET_BLOCK = 1 << 16


def permanent(mat):
    """Permanent of a square complex matrix: the Laplace expansion along its
    last row over the column-deleted minors of the rows above, O(n^2 2^n).
    The 0x0 matrix has permanent 1 (empty product), matching the vacuum
    amplitude.
    """
    mat = np.asarray(mat, dtype=complex)
    if len(mat) == 0:
        return 1.0 + 0.0j
    return complex(mat[-1] @ permanent_minors(mat[:-1]))


@lru_cache(maxsize=None)
def _subsets(k):
    """The 2^k subsets of k columns as 0/1 rows, and Ryser's sign (-1)^|S| of each."""
    rows = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return rows.astype(float), 1.0 - 2.0 * (rows.sum(axis=1) % 2)


def permanent_minors(mat):
    """Permanents of the k column-deleted minors of a (k-1) x k matrix.

    Entry l is the permanent of ``mat`` without column l. Ryser's sum over
    the column subsets S of all k columns vanishes (k-1 rows cannot cover
    k columns), so the minor without column l is (-1)^k times the sum of
    the subsets holding l: one O(k^2 2^k) pass gives all k at once. The
    products with the 0/1 subset table are taken on real and imaginary
    parts apart, which keeps them real matrix products. Past
    ``_SUBSET_BLOCK`` subsets the table covers the low columns only, and
    the pass walks one block per choice of the high columns, whose row
    sums it adds to the table's.
    """
    mat = np.asarray(mat, dtype=complex)
    k = mat.shape[1]
    low = min(k, _SUBSET_BLOCK.bit_length() - 1)
    rows, sign = _subsets(low)
    sums = rows @ mat[:, :low].real.T + 1j * (rows @ mat[:, :low].imag.T)
    minors = np.zeros(k, dtype=complex)
    for high in range(1 << (k - low)):
        # the block of subsets holding, of the high columns, those set in ``high``
        block = sums
        if high:
            picked = (high >> np.arange(k - low)) & 1
            block = sums + mat[:, low:] @ picked
        terms = (-1) ** high.bit_count() * sign * np.prod(block, axis=1)
        minors[:low] += rows.T @ terms.real + 1j * (rows.T @ terms.imag)
        if high:
            minors[low:] += picked * terms.sum()
    return (-1) ** k * minors


#: Most entries (child slots and occupation counts) the rank tables keep
#: cached; a level that would pass it is built for its call and dropped.
_TABLE_ENTRIES = 1 << 22

# (modes, photons) -> that level's rank table; _table_entries is their size
_TABLES: dict = {}
_table_entries = 0


def accumulate(keys):
    """Rank ``keys`` by first occurrence.

    Returns the distinct keys in the order they first occur and the slot
    of each key among them. ``np.bincount(slot, w)`` then sums the weights
    of equal keys left to right from 0.0, as ``d[key] = d.get(key, 0j) + w``
    does over the same sequence: ``np.bincount`` adds its weights one by
    one in index order.
    """
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def _level(m, t, below):
    """The rank table of level ``t`` >= 1 of ``m`` modes, given ``below``,
    the occupations of level t - 1 in rank order.

    Returns ``(child, counts)``: ``child[k, r]`` is the rank at level t of
    the occupation of rank r at level t - 1 plus one photon in mode
    m - 1 - k, and ``counts`` are level t's occupations in rank order.
    Ranks are the dict loop's order of first occurrence, which depends on
    (m, t) alone while no column holds an exact zero: every photon step
    adds the same m keys to each key in turn. It is the lexicographic
    order of the modes' multisets, sorted ascending. Levels are cached up
    to ``_TABLE_ENTRIES`` entries in all.
    """
    global _table_entries
    table = _TABLES.get((m, t))
    if table is None:
        bits = t.bit_length()
        steps = np.left_shift(1, bits * np.arange(m), dtype=np.int64)
        keys = below.astype(np.int64) @ steps
        distinct, slot = accumulate((keys[:, None] + steps).ravel())
        counts = (distinct[:, None] >> (bits * np.arange(m))) & ((1 << bits) - 1)
        child = np.ascontiguousarray(slot.astype(np.int32).reshape(len(below), m)[:, ::-1].T)
        table = child, counts.astype(np.min_scalar_type(t))
        for array in table:
            array.setflags(write=False)
        size = table[0].size + table[1].size
        if _table_entries + size <= _TABLE_ENTRIES:
            _TABLES[m, t] = table
            _table_entries += size
    return table


def expand_basis_state(u, occ, arrays=False):
    """Expand U|occ> in the number basis for an m-mode unitary ``u``.

    Each creation operator a_l^dag is replaced by sum_m u[m, l] a_m^dag and
    the resulting polynomial is expanded one photon at a time; occupation
    vectors are packed into integer keys during the convolution. Returns a
    dict mapping output occupation tuples to complex amplitudes.

    With ``arrays``, ``occ`` is a sequence of occupations with one photon
    total, all expanded together, and the result is ``(counts, re, im)``:
    an (outputs x m) integer array of the output occupations in the
    dicts' order and, one row per occupation, the real and imaginary parts
    of its amplitudes, equal to its dict's values bit for bit. Each photon
    step is one ``np.bincount`` through a cached rank table, so every
    column of ``u`` that an occupation fills must be free of exact zeros
    (the dict loop skips those), and m * bit_length(total) <= 62.
    """
    if arrays:
        return _expand_arrays(np.asarray(u), np.array(occ, dtype=np.int64).reshape(len(occ), -1))
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
        n_l = occ[l]
        if n_l == 0:
            continue
        col = [(1 << (bits * j), complex(u[j][l])) for j in range(m) if u[j][l] != 0]
        for _ in range(n_l):
            nxt = {}
            for key, amp in current.items():
                for step, c in col:
                    new_key = key + step
                    nxt[new_key] = nxt.get(new_key, 0.0 + 0.0j) + amp * c
            current = nxt
    out = {}
    for key, amp in current.items():
        factor = 1.0
        counts = []
        for _ in range(m):
            k = key & mask
            counts.append(k)
            factor *= sqrt_fact[k]
            key >>= bits
        out[tuple(counts)] = amp * (factor / scale)
    return out


def _expand_arrays(u, occs):
    """The dict loop of ``expand_basis_state`` for every row of ``occs`` at
    once: one ``np.bincount`` per photon step, at slot owner * n + child.

    A slot takes one product per mode j its occupation holds, from the
    parent without that photon, and the larger j, the lower that parent's
    rank (ranks are lexicographic): summing modes descending, then parents
    ascending, adds them in the dict loop's order.
    """
    owners, m = occs.shape
    t = int(occs[0].sum())
    if (occs.sum(axis=1) != t).any():
        raise ValueError("the occupations expanded together must hold the same photon total")
    if not u[:, occs.any(axis=0)].all():
        raise ValueError("a filled column of the unitary holds an exact zero")
    # the column of each photon, in the dict loop's order
    cols = np.array([np.repeat(np.arange(m), occ) for occ in occs]).reshape(owners, t)
    counts = np.zeros((1, m), dtype=np.uint8)
    re, im = np.ones((owners, 1)), np.zeros((owners, 1))
    for s in range(t):
        child, counts = _level(m, s + 1, counts)
        n = len(counts)
        slot = (np.arange(owners)[:, None] * n + child.ravel()).ravel()
        c = u[::-1, cols[:, s]].T[:, :, None]
        # owner, mode descending, parent: amp * c as CPython forms it,
        # (ar cr - ai ci, ar ci + ai cr)
        ar, ai, cr, ci = re[:, None, :], im[:, None, :], c.real, c.imag
        re = np.bincount(slot, (ar * cr - ai * ci).ravel(), owners * n).reshape(owners, n)
        im = np.bincount(slot, (ar * ci + ai * cr).ravel(), owners * n).reshape(owners, n)
    table = np.array(_sqrt_factorials(t)[:t + 1])
    factor, scale = np.ones(len(counts)), np.ones((owners, 1))
    for j in range(m):
        factor *= table[counts[:, j]]
        scale *= table[occs[:, j, None]]
    g = factor / scale
    # amp * g for a float g is the product with complex(g, 0.0)
    return counts, re * g - im * 0.0, re * 0.0 + im * g
