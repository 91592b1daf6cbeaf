"""Number-basis kernels: Glynn's permanent, the permanents of
column-deleted minors, and the expansion of U|occ>.

Both permanent forms read a cached table of sign vectors (``_signs``),
walked (``_glynn_blocks``) in blocks of ``_SUBSET_BLOCK`` vectors past 17
rows: the permanent is the weighted sum of the products of the column
sums, one expression up to 17 rows, and the minors take the same products
less one column, from prefix and suffix products. Glynn's sum is D. G.
Glynn, "The permanent of a square matrix", European J. Combin. 31 (2010).

The expansion is one computation (``_expand_arrays``), each photon step
one ``np.bincount`` through a cached rank table built from a closed form
(``_level``), over blocks of occupations whose products and slots fit one
fixed workspace per thread (``_scratch``). It is read in two forms: arrays
for the occupations of one photon total (``arrays=True``), and a dict for
one occupation, expanded on the rows of the unitary that its filled
columns reach, listing the outputs that its nonzero entries reach. Both
forms keep their rows in one store (``_ROWS``, one occupation under one
unitary in one form each, least recently used dropped first past
``_ROW_FLOATS``), storing a row at the second request of its key within
the last ``_RECENT_KEYS`` missed keys, so a fixed interferometer (the NS
sign flip, the balanced splitters and the Fourier multiports of the
gates) is expanded once while a unitary seen once takes no memory.
``stored`` keeps any other value there under the same rule and budget:
``measure`` keeps the plans of its detection passes in it. ``optics`` and
``measure`` reach the kernels through ``fockworks._backend.kernels``, one
call per expansion, hit or not.
"""

import math
import sys
import threading
from collections import OrderedDict
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .fock import BudgetExceeded

BACKEND = "python"

#: Outputs read out into occupation tuples per step, by the dict form and
#: by ``optics`` from the rank keys of its array route.
UNPACK_ROWS = 1 << 14

_SQRT_FACT = [math.sqrt(math.factorial(k)) for k in range(64)]


def _sqrt_factorials(n):
    """sqrt(k!) for k = 0..n: the exact table, extended from lgamma past 64; n > 300 is refused."""
    if n < len(_SQRT_FACT):
        return _SQRT_FACT
    try:
        return _SQRT_FACT + [math.exp(0.5 * math.lgamma(k + 1)) for k in range(len(_SQRT_FACT), n + 1)]
    except OverflowError:
        raise BudgetExceeded(f"{n} photons in one occupation: sqrt({n}!) passes the float range") from None


#: Most sign vectors one block of the Glynn walk holds, a power of two:
#: the sign table covers 17 rows, and matrices with more rows walk theirs
#: in blocks of this many.
_SUBSET_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _signs(r):
    """Glynn's sign vectors of r rows and their weights.

    Returns ``(d, weights)``: the 2^(r-1) vectors delta with delta_0 = +1
    as the columns of an (r x 2^(r-1)) array, and each vector's sign
    product over 2^(r-1), a power of two, so exact. For r = 0 it is the
    one empty vector, of weight 1.
    """
    cols = np.arange(1 << max(r - 1, 0))
    d = np.ones((r, len(cols)))
    for i in range(1, r):
        d[i] -= 2 * ((cols >> (i - 1)) & 1)
    weights = np.multiply.reduce(d, axis=0) / len(cols)
    for array in (d, weights):
        array.setflags(write=False)
    return d, weights


def _glynn_blocks(mat):
    """Walk Glynn's sign vectors over the rows of an (r x k) ``mat``.

    Yields ``(sums, weights)``: the (k x block) column sums ``mat.T @ d``
    for a block of sign vectors d and the weight of each. Up to 17 rows
    (``_SUBSET_BLOCK`` vectors) that is one block; past them the table
    covers the first 17 rows, and each choice of the signs of the other
    rows shifts its sums by one column of ``shifts``. The yielded sums
    are overwritten by the next block.
    """
    low = min(len(mat), _SUBSET_BLOCK.bit_length())
    d, weights = _signs(low)
    sums = mat[:low].T @ d
    if low == len(mat):
        yield sums, weights
        return
    # the rows past the table take both signs: the columns of a table one row longer, less its first row
    high, high_weights = _signs(len(mat) - low + 1)
    shifts = mat[low:].T @ high[1:]
    block = np.empty_like(sums)
    for c, w in enumerate(high_weights):
        yield np.add(sums, shifts[:, c, None], out=block), weights * w


def permanent(mat):
    """Permanent of a square complex matrix by Glynn's formula, O(n^2 2^n):
    the sum over the sign vectors delta (delta_0 = +1) of
    prod(delta) prod_j (sum_i delta_i mat[i, j]), over 2^(n-1). Unlike
    Ryser's sum over column subsets it cancels little: 16 photons stay
    within 1e-10 of the expansion.
    The 0x0 matrix has permanent 1 (empty product), matching the vacuum
    amplitude. Up to 17 rows one expression has the walk's bits (its 0 + too).
    """
    mat = np.asarray(mat, dtype=complex)
    if len(mat) <= _SUBSET_BLOCK.bit_length():
        d, w = _signs(len(mat))
        return complex(0 + np.multiply.reduce(mat.T @ d, axis=0) @ w)
    return complex(sum(np.multiply.reduce(sums, axis=0) @ w for sums, w in _glynn_blocks(mat)))


def permanent_minors(mat):
    """Permanents of the k column-deleted minors of a (k-1) x k matrix.

    Entry l is the permanent of ``mat`` without column l: Glynn's sum over
    the same sign vectors of the rows, of the product of every column sum
    but column l's. That product is the product of the sums before l times
    those after it, prefix and suffix products without a division, so one
    O(k^2 2^k) walk gives all k at once.
    """
    mat = np.asarray(mat, dtype=complex)
    k = mat.shape[1]
    minors = np.zeros(k, dtype=complex)
    for sums, w in _glynn_blocks(mat):
        # row l: the prefix product of the sums before column l, then times the suffix after it
        terms = np.ones_like(sums)
        for l in range(1, k):
            np.multiply(terms[l - 1], sums[l - 1], out=terms[l])
        suffix = np.ones_like(w, dtype=complex)
        for l in range(k - 1, 0, -1):
            suffix *= sums[l]
            terms[l - 1] *= suffix
        minors += terms @ w
    return minors


#: Floats in each thread's workspace (``_scratch``), 512 KiB, which an L2
#: cache holds: ``_expand_arrays`` and ``optics._evolved`` work in blocks of it.
_STEP_BLOCK = 1 << 16


class _Workspace(threading.local):
    """A thread's own ``_STEP_BLOCK`` floats (numpy writes them without the GIL)."""

    def __init__(self):
        self.floats = np.empty(_STEP_BLOCK)


_WORK = _Workspace()

#: Most entries (child slots and occupation counts) the rank tables keep
#: cached; a level that would pass it is built for its call and dropped.
_TABLE_ENTRIES = 1 << 22

# (modes, photons) -> that level's rank table; _table_entries is their size
_TABLES: dict = {}
_table_entries = 0

#: Most floats' worth of memory (8 bytes each) the stored expansion rows
#: and pass plans hold, with their keys and the store's own table
#: (``_floats``): 6 MiB, past the 4.4 MiB that the exact Fourier
#: detections of ``teleport_tn`` n=8 and ``csign_teleported`` n=4 keep
#: between them.
_ROW_FLOATS = 6 << 17
#: Missed row keys remembered, so that a second request stores its row.
_RECENT_KEYS = 256

# (unitary, occupation, arrays) -> its row, (re, im) or a dict, and the
# keys of ``stored`` -> their values, least recently used first, and
# _row_floats their charge; _recent is a ring of the hashes of the last
# missed keys, written at _recent_at: one array, where a dict of them
# would pin small objects all over the heap (a hash collision only stores
# a row early)
_ROWS: OrderedDict = OrderedDict()
_row_floats = 0
_recent = np.zeros(_RECENT_KEYS, dtype=np.int64)
_recent_at = 0


def _level(m, t, below, keep=True):
    """The rank table of level ``t`` >= 1 of ``m`` modes, given ``below``,
    the occupations of level t - 1 in rank order.

    Returns ``(child, counts)``: ``child[k, r]`` is the rank at level t of
    the occupation of rank r at level t - 1 plus one photon in mode
    m - 1 - k, and ``counts`` are level t's occupations in rank order, the
    lexicographic order of the modes' multisets. With s_j the photons in
    the modes after j, a rank is the sum over j < m - 1 of
    C(s_j + m - 2 - j, m - 1 - j); a photon added to mode q raises it by
    the sum over j < q of C(s_j + m - 2 - j, m - 2 - j), one ``cumsum``
    of Pascal entries no larger than the level. With ``keep``, levels are
    cached up to ``_TABLE_ENTRIES`` entries in all.
    """
    global _table_entries
    table = _TABLES.get((m, t))
    if table is None:
        # pascal[s, a] = C(s + a, a): each row the running sum of the one above
        pascal = np.ones((t, m - 1), dtype=np.int64)
        for s in range(1, t):
            np.cumsum(pascal[s - 1], out=pascal[s])
        after = np.cumsum(below[:, :0:-1], axis=1, dtype=np.intp)[:, ::-1]
        ranks = np.zeros((len(below), m), dtype=np.int64)
        ranks[:, 1:] = pascal[after, np.arange(m - 2, -1, -1)]
        np.cumsum(ranks, axis=1, out=ranks)
        ranks += np.arange(len(below))[:, None]
        # every occupation of level t is some parent's child: scatter them
        counts = np.empty((int(ranks[-1, -1]) + 1, m), dtype=np.min_scalar_type(t))
        for q in range(m):
            counts[ranks[:, q]] = below
            counts[ranks[:, q], q] += 1
        table = np.ascontiguousarray(ranks[:, ::-1].T, dtype=np.int32), counts
        for array in table:
            array.setflags(write=False)
        size = table[0].size + table[1].size
        if keep and _table_entries + size <= _TABLE_ENTRIES:
            _TABLES[m, t] = table
            _table_entries += size
    return table


def outputs(m, t):
    """The output occupations of ``t`` photons on ``m`` modes, in the order
    in which the array form lists them: the counts of
    ``expand_basis_state(u, occs, arrays=True)``, without expanding."""
    counts = np.zeros((1, m), dtype=np.uint8)
    for s in range(t):
        counts = _level(m, s + 1, counts)[1]
    return counts


def expand_basis_state(u, occ, arrays=False):
    """Expand U|occ> in the number basis for an m-mode unitary ``u``.

    Each creation operator a_l^dag is replaced by sum_m u[m, l] a_m^dag and
    the resulting polynomial is expanded one photon at a time. Returns a
    read-only mapping of output occupation tuples to complex amplitudes,
    read from ``_ROWS`` when requested before: every output that the
    nonzero entries of the filled columns reach, in the order in which a
    photon-by-photon loop over them first reaches it (the rank order when
    those columns hold no exact zero).

    With ``arrays``, ``occ`` is a sequence of occupations with one photon
    total, all expanded together, and the result is ``(counts, re, im)``:
    ``outputs(m, t)`` and, one row per occupation, the real and imaginary
    parts of its amplitudes, equal to its dict's values bit for bit. Every
    column of ``u`` that an occupation fills must be free of exact zeros.
    Rows requested before are read from ``_ROWS`` (``_expand_rows``).
    """
    u = np.asarray(u)
    if arrays:
        return _expand_rows(u, np.array(occ, dtype=np.int64).reshape(len(occ), -1))
    occ = tuple(occ)
    return MappingProxyType(stored((_matrix(u), occ, False), lambda: _expand_dict(u, occ)))


def stored(key, compute):
    """The value held in ``_ROWS`` under ``key``, else ``compute()``, which
    is held from the key's second request on, as a row is."""
    value = _ROWS.get(key)
    if value is None:
        value = compute()
        _remember([key], lambda _: value)
    else:
        _ROWS.move_to_end(key)
    return value


def _matrix(u):
    """The part of a ``_ROWS`` key that names the unitary ``u``: its shape,
    dtype (a shared object) and bytes."""
    return u.shape, u.dtype, u.tobytes()


def _expand_dict(u, occ):
    """The dict form of ``expand_basis_state``, computed: the array form of
    ``occ`` on the rows of ``u`` that its filled columns reach, padded back
    to every mode ``UNPACK_ROWS`` outputs at a time, in the counts' dtype,
    as a new dict. A row that ``_size`` would charge past ``_ROW_FLOATS``
    (C(t + s, s) outputs bound it) is never stored: nor are its tables."""
    occs = np.array([occ], dtype=np.int64)
    support = np.flatnonzero(u[:, occs[0] > 0].any(axis=1))
    outputs = math.comb(sum(occ) + len(support), len(support))
    keep = outputs * (sys.getsizeof(occ) + sys.getsizeof(0j)) <= 8 * _ROW_FLOATS
    counts, re, im = _expand_arrays(u[support], occs, keep)
    out: dict = {}
    for start in range(0, len(counts), UNPACK_ROWS):
        rows = slice(start, start + UNPACK_ROWS)
        padded = np.zeros((len(counts[rows]), len(occ)), dtype=counts.dtype)
        padded[:, support] = counts[rows]
        amps = map(complex, re[0, rows].tolist(), im[0, rows].tolist())
        out.update(zip(map(tuple, padded.tolist()), amps))
    return out


def _expand_rows(u, occs):
    """The array form of ``expand_basis_state``: each occupation's row is
    read from ``_ROWS`` when held there, and the others are expanded
    together.

    A row has the same bits whichever occupations share its call, so a
    held row stands for a fresh one; a hit needs its level's counts in
    ``_TABLES``.
    """
    owners, m = occs.shape
    t = int(occs[0].sum())
    if (occs.sum(axis=1) != t).any():
        raise ValueError("the occupations expanded together must hold the same photon total")
    level = _TABLES.get((m, t)) if t else (None, np.zeros((1, m), dtype=np.uint8))
    matrix = _matrix(u)
    keys = [(matrix, occ, True) for occ in map(tuple, occs.tolist())]
    rows = [_ROWS.get(key) for key in keys] if level else [None] * owners
    missing = [i for i, row in enumerate(rows) if row is None]
    for key, row in zip(keys, rows):
        if row is not None:
            _ROWS.move_to_end(key)
    if missing:
        if not u[:, occs.any(axis=0)].all():
            raise ValueError("a filled column of the unitary holds an exact zero")
        counts, re, im = _expand_arrays(u, occs[missing] if len(missing) < owners else occs)
        _remember([keys[i] for i in missing], lambda j: _frozen(re[j].copy(), im[j].copy()))
        if len(missing) == owners:
            return counts, re, im
        for i, r, c in zip(missing, re, im):
            rows[i] = r, c
    return level[1], np.array([r for r, _ in rows]), np.array([c for _, c in rows])


def _frozen(*arrays):
    """The ``arrays``, made read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _remember(keys, row):
    """Store the row ``row(i)`` of each missed ``keys[i]`` whose key was
    among the last ``_RECENT_KEYS`` missed keys, and note the others: a
    unitary seen once takes no memory. Past ``_ROW_FLOATS`` the least
    recently used rows, of either form, are dropped."""
    global _row_floats, _recent_at
    hashes = list(map(hash, keys))
    if len(keys) == 1:
        # one key (the dict form's): its hash is in the ring when its bytes
        # are, a search that builds no array (bytes that span two hashes
        # match as a hash collision does)
        seen = [hashes[0].to_bytes(8, sys.byteorder, signed=True) in _recent.tobytes()]
    else:
        seen = (np.array(hashes, dtype=np.int64)[:, None] == _recent).any(axis=1).tolist()
    for i, (h, old) in enumerate(zip(hashes, seen)):
        if not old:
            _recent[_recent_at] = h
            _recent_at = (_recent_at + 1) % len(_recent)
            continue
        key, stored_row = keys[i], row(i)
        _recent[_recent == h] = 0
        floats = _floats(key, stored_row)
        # stored already (a repeated occupation, or a level dropped from _TABLES) or too large
        if key in _ROWS or floats > _ROW_FLOATS:
            continue
        _ROWS[key] = stored_row
        _row_floats += floats
        # the store's own table, as sys.getsizeof measures it, counts too
        while _ROWS and _row_floats + sys.getsizeof(_ROWS) // 8 > _ROW_FLOATS:
            _row_floats -= _floats(*_ROWS.popitem(last=False))


def _floats(key, row):
    """The memory the stored ``row`` of ``key`` holds, in floats of 8
    bytes, as ``sys.getsizeof`` measures it (``_size``)."""
    return -(-(_size(key) + _size(row)) // 8)


def _size(value):
    """The bytes ``value`` holds as ``sys.getsizeof`` measures them: a
    tuple and each of its items, an array's or a bytes object's buffer,
    or a dict row's dict and one output tuple of m counts and one complex
    per entry. Ints, bools and dtypes are shared (small ints interned),
    and not counted."""
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(_size, value))
    if isinstance(value, dict):
        entry = sys.getsizeof(next(iter(value))) + sys.getsizeof(0j) if value else 0
        return sys.getsizeof(value) + len(value) * entry
    if isinstance(value, (bytes, np.ndarray)):
        return sys.getsizeof(value)
    return 0


def _expand_arrays(u, occs, keep=True):
    """``(counts, re, im)`` of every row of ``occs`` under ``u``, whose
    rows are the output modes: one ``np.bincount`` per photon step, at
    slot owner * n + child, exact zeros multiplied in, over rank tables
    cached with ``keep`` (``_level``), in blocks of owners whose widest step
    (the last: two products and a slot per owner, mode and parent) fits the
    thread's workspace (``_scratch``; a wider owner's wide steps allocate).

    Each slot, an owner's own, adds its products from 0.0, formed as CPython
    forms them, in the order in which a photon-by-photon loop over the
    nonzero entries of ``u`` first reaches their parents: the rank order,
    every output listed, while the filled columns hold no exact zero; past
    one (one owner), only the outputs the loop reaches, in its order.
    """
    owners, m = occs.shape
    t = int(occs[0].sum())
    table = np.array(_sqrt_factorials(t)[:t + 1])  # before expanding: it raises past the float range
    # the column of each photon, columns ascending, and each step's rank table and size
    cols = np.array([np.repeat(np.arange(m), occ) for occ in occs]).reshape(owners, t)
    counts, levels = np.zeros((1, len(u)), dtype=np.uint8), []
    for s in range(t):
        child, counts = _level(len(u), s + 1, counts, keep)
        levels.append((child, len(counts)))
    filled = np.flatnonzero(occs.any(axis=0))
    zeros, scale = not u[:, filled].all(), np.ones((owners, 1))
    for j in filled:
        scale *= table[occs[:, j, None]]
    block = max(1, _STEP_BLOCK // max(3 * len(u) * (levels[-1][0].shape[1] if t else 1), 1))
    for start in range(0, owners, block):
        rows, b = slice(start, start + block), min(block, owners - start)
        # each step's parents in the loop's order: all of them, in rank order, without a zero
        re, im, order = np.ones((b, 1)), np.zeros((b, 1)), slice(None)
        for s, (child, n) in enumerate(levels):
            c = u[::-1, cols[rows, s]].T[:, :, None]
            # owner, mode descending, parent: amp * c as CPython forms it,
            # (ar cr - ai ci, ar ci + ai cr)
            parts = child[:, order], re[:, None, order], im[:, None, order], c.real, c.imag
            if zeros:
                # parent by parent: a slot adds its products in its parents' order
                parts = [np.swapaxes(part, -1, -2) for part in parts]
            kids, ar, ai, cr, ci = parts
            x, y, slot = _scratch(b * kids.size).reshape(3, b, *kids.shape)
            slot = np.add(np.arange(0, b * n, n)[:, None, None], kids, out=slot.view(np.int64)).ravel()
            np.subtract(np.multiply(ar, cr, out=x), np.multiply(ai, ci, out=y), out=x)
            sums = np.bincount(slot, x.ravel(), b * n).reshape(b, n)
            np.add(np.multiply(ar, ci, out=x), np.multiply(ai, cr, out=y), out=x)
            re, im = sums, np.bincount(slot, x.ravel(), b * n).reshape(b, n)
            if zeros:
                # the children through a nonzero entry as the loop reaches them,
                # parents in order, modes ascending: first reached first
                ranks, first = np.unique(kids[:, ::-1][:, u[:, cols[start, s]] != 0], return_index=True)
                order = ranks[np.argsort(first)]
        if not start:
            counts = counts[order]
            factor = np.multiply.reduce(table[counts], axis=1)  # mode by mode, as a loop multiplies
            re_out, im_out = np.empty((owners, len(counts))), np.empty((owners, len(counts)))
        # amp * g for a float g is the product with complex(g, 0.0): (re g - im 0.0, re 0.0 + im g)
        re, im = re[:, order], im[:, order]
        g, re0, im0 = _scratch(re.size).reshape(3, *re.shape)
        np.divide(factor, scale[rows], out=g)
        np.subtract(np.multiply(re, g, out=re_out[rows]), np.multiply(im, 0.0, out=im0), out=re_out[rows])
        np.add(np.multiply(re, 0.0, out=re0), np.multiply(im, g, out=im_out[rows]), out=im_out[rows])
    return counts, re_out, im_out


def _scratch(size, count=3):
    """``count`` rows of ``size`` floats: in this thread's workspace if they fit, else fresh."""
    work = _WORK.floats if count * size <= _STEP_BLOCK else np.empty(count * size)
    return work[:count * size].reshape(count, size)
