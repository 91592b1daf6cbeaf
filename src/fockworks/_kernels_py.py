"""Number-basis kernels: the Ryser permanent, the permanents of
column-deleted minors, and the expansion of U|occ>.

The permanent and the expansion are pure Python (the expansion on
integer-packed occupation keys); the minors are one numpy pass over the
column subsets. ``optics`` and ``measure`` reach them through
``fockworks._backend.kernels``.
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


def expand_basis_state(u, occ):
    """Expand U|occ> in the number basis for an m-mode unitary ``u``.

    Each creation operator a_l^dag is replaced by sum_m u[m, l] a_m^dag and
    the resulting polynomial is expanded one photon at a time; occupation
    vectors are packed into integer keys during the convolution. Returns a
    dict mapping output occupation tuples to complex amplitudes.
    """
    m = len(occ)
    total = sum(occ)
    sqrt_fact = _sqrt_factorials(total)
    bits = max(total.bit_length(), 1)
    mask = (1 << bits) - 1
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
    scale = 1.0
    for n_l in occ:
        scale *= sqrt_fact[n_l]
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
