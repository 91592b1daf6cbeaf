"""Number-basis kernels: the Ryser permanent, the permanents of
column-deleted minors, and the expansion of U|occ>.

The minors are one numpy pass over the column subsets, walked in blocks
past ``_SUBSET_BLOCK`` subsets; the permanent is their Laplace expansion
along the matrix's last row. The expansion runs on integer-packed
occupation keys in one of two forms with the same bits: a dict loop for
the small expansions most evolutions need, and numpy steps
(``arrays=True``) for the large ones. The numpy form merges equal keys
with ``accumulate``, which sums them left to right from 0.0 in the order
they first occur, as the dict loop does, and multiplies complex numbers
in CPython's order on separate real arrays. ``optics`` and ``measure``
reach the kernels through ``fockworks._backend.kernels``.
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


def accumulate(keys, re, im):
    """Sum the amplitudes ``re + i im`` of equal ``keys``.

    Returns the distinct keys in the order they first occur and the sums
    of their real and imaginary parts, each taken left to right from 0.0:
    the bits of ``d[key] = d.get(key, 0j) + amp`` over the same sequence.
    ``np.bincount`` adds its weights one by one in index order.
    """
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    slot = rank[inverse]
    return (distinct[order], np.bincount(slot, re, len(order)),
            np.bincount(slot, im, len(order)))


def expand_basis_state(u, occ, arrays=False):
    """Expand U|occ> in the number basis for an m-mode unitary ``u``.

    Each creation operator a_l^dag is replaced by sum_m u[m, l] a_m^dag and
    the resulting polynomial is expanded one photon at a time; occupation
    vectors are packed into integer keys during the convolution. Returns a
    dict mapping output occupation tuples to complex amplitudes.

    With ``arrays`` the same steps run on numpy arrays and the result is
    ``(counts, re, im)``: an (outputs x m) int64 array of the occupations
    in the dict's order and the real and imaginary parts of their
    amplitudes, equal to the dict's values bit for bit. The packed keys
    must fit in 62 bits: m * bit_length(sum(occ)) <= 62.
    """
    m = len(occ)
    total = sum(occ)
    sqrt_fact = _sqrt_factorials(total)
    bits = max(total.bit_length(), 1)
    mask = (1 << bits) - 1
    scale = 1.0
    for n_l in occ:
        scale *= sqrt_fact[n_l]
    if arrays:
        return _expand_arrays(u, occ, bits, sqrt_fact[:total + 1], scale)
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


def _expand_arrays(u, occ, bits, sqrt_fact, scale):
    """The dict loop of ``expand_basis_state`` as numpy steps."""
    m = len(occ)
    u = np.asarray(u)
    keys = np.zeros(1, dtype=np.int64)
    re, im = np.ones(1), np.zeros(1)
    for l in range(m):
        if occ[l] == 0:
            continue
        rows = np.flatnonzero(u[:, l] != 0)
        steps = np.left_shift(1, bits * rows, dtype=np.int64)
        cr, ci = u[rows, l].real, u[rows, l].imag
        for _ in range(occ[l]):
            # key-major, step-minor: the order the dict loop visits them;
            # amp * c as CPython forms it, (ar cr - ai ci, ar ci + ai cr)
            ar, ai = re[:, None], im[:, None]
            keys, re, im = accumulate((keys[:, None] + steps).ravel(),
                                      (ar * cr - ai * ci).ravel(), (ar * ci + ai * cr).ravel())
    counts = (keys[:, None] >> (bits * np.arange(m))) & ((1 << bits) - 1)
    table = np.array(sqrt_fact)
    factor = np.ones(len(keys))
    for j in range(m):
        factor *= table[counts[:, j]]
    g = factor / scale
    # amp * g for a float g is the product with complex(g, 0.0)
    return counts, re * g - im * 0.0, re * 0.0 + im * g
