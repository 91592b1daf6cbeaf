"""Number-basis kernels: the Ryser permanent, the permanents of
column-deleted minors, and the expansion of U|occ>.

The permanent is pure Python; the minors are one numpy pass over the
column subsets. The expansion runs on integer-packed occupation keys in
one of two forms with the same bits: a dict loop for the small
expansions most evolutions need, and numpy steps (``arrays=True``) for
the large ones. The numpy form merges equal keys with ``accumulate``,
which sums them left to right from 0.0 in the order they first occur, as
the dict loop does, and multiplies complex numbers in CPython's order on
separate real arrays. ``optics`` and ``measure`` reach the kernels
through ``fockworks._backend.kernels``.
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


def permanent(mat):
    """Permanent of a square complex matrix via Ryser's formula.

    Gray-code subset enumeration, O(2^n * n) arithmetic. The 0x0 matrix
    has permanent 1 (empty product), matching the vacuum amplitude.
    """
    n = len(mat)
    if n == 0:
        return 1.0 + 0.0j
    rows = [[complex(mat[i][j]) for j in range(n)] for i in range(n)]
    sums = [0.0 + 0.0j] * n
    total = 0.0 + 0.0j
    sign = -1 if n % 2 else 1
    gray = 0
    for k in range(1, 1 << n):
        # bit flipped between consecutive Gray codes
        new_gray = k ^ (k >> 1)
        bit = new_gray ^ gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            for i in range(n):
                sums[i] += rows[i][j]
        else:
            for i in range(n):
                sums[i] -= rows[i][j]
        gray = new_gray
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= sums[i]
        if new_gray.bit_count() % 2:
            total -= prod
        else:
            total += prod
    return sign * total


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
    parts apart, which keeps them real matrix products.
    """
    mat = np.asarray(mat, dtype=complex)
    k = mat.shape[1]
    rows, sign = _subsets(k)
    terms = sign * np.prod(rows @ mat.real.T + 1j * (rows @ mat.imag.T), axis=1)
    return (-1) ** k * (rows.T @ terms.real + 1j * (rows.T @ terms.imag))


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
