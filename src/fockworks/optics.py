"""Passive linear optics: element matrices, Fock evolution, and decomposition.

Conventions
-----------
A network is described by its action on creation operators,
a_l^dag -> sum_m U[m, l] a_m^dag, with U unitary. The two primitive
elements are

    phase shifter  P_theta   : 1x1 matrix [e^{i theta}]
    beam splitter  B_theta   : [[cos t, -sin t], [sin t, cos t]]

"Balanced" means theta = pi/4 in this matrix convention. Protocol
literature often names the balanced splitter by its Hamiltonian angle
(twice the matrix angle); all quantities asserted by the test suite are
convention-independent.
"""

import cmath
import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain
from numbers import Integral

import numpy as np

from ._backend import kernels
from .fock import (BudgetExceeded, FockError, FockState, InvalidOccupationError, ModeMismatchError,
                   _check_modes, _integers)

UNITARY_TOL = 1e-10
#: Output bound from which apply_unitary takes the array route; below it
#: numpy's per-call cost outweighs what the dict route spends per term.
ARRAY_MIN_TERMS = 4096
#: Largest output bound apply_unitary expands.
MAX_EVOLVED_TERMS = 2_000_000


class NonUnitaryError(FockError):
    """Matrix fails the unitarity check."""


class ModeUnitary:
    """An m x m unitary acting on creation operators.

    Unitarity (max-norm residual of U^dag U - I) is checked at
    construction; the wrapped array is never mutated.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix, tol: float = UNITARY_TOL):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonUnitaryError(f"expected a square matrix, got shape {m.shape}")
        residual = unitarity_residual(m)
        if not residual <= tol:  # a NaN residual (NaN or inf entries) fails too
            raise NonUnitaryError(f"unitarity residual {residual:.3e} exceeds {tol:.1e}")
        m.setflags(write=False)
        self.matrix = m
        self.dim = m.shape[0]

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        return ModeUnitary(self.matrix @ other.matrix)

    def dagger(self) -> "ModeUnitary":
        return ModeUnitary(self.matrix.conj().T)

    def __repr__(self):
        return f"ModeUnitary(dim={self.dim})"


def unitarity_residual(matrix) -> float:
    m = np.asarray(matrix, dtype=complex)
    if not m.size:
        raise NonUnitaryError(f"expected a matrix of at least one mode, got shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries give NaN or inf
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    theta: float


@dataclass(frozen=True)
class BeamSplitter:
    mode_a: int
    mode_b: int
    theta: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter modes must be distinct")


OpticalElement = PhaseShifter | BeamSplitter


@dataclass(frozen=True)
class ElementSequence:
    """Time-ordered element list; compose() multiplies right-to-left."""

    modes: int
    elements: tuple = ()
    global_phase: complex = 1.0 + 0j


def element_matrix(element: OpticalElement) -> ModeUnitary:
    """Matrix of an element on its own mode(s)."""
    if isinstance(element, PhaseShifter):
        return ModeUnitary([[cmath.exp(1j * element.theta)]])
    c, s = math.cos(element.theta), math.sin(element.theta)
    return ModeUnitary([[c, -s], [s, c]])


@cache
def fourier_matrix(n: int) -> ModeUnitary:
    """(n+1)-point Fourier transform, entries w^{kl} / sqrt(n+1); built and
    checked once per n, then shared (a ModeUnitary is never mutated)."""
    if not isinstance(n, Integral) or n < 1:
        raise ValueError(f"need an integer n >= 1, got {n!r}")
    dim = n + 1
    k = np.arange(dim)
    mat = np.exp(2j * np.pi * np.outer(k, k) / dim) / math.sqrt(dim)
    return ModeUnitary(mat)


def embed(element: OpticalElement, modes: int) -> ModeUnitary:
    """Element matrix padded with identity to ``modes`` modes."""
    if isinstance(element, PhaseShifter):
        idx = (element.mode,)
    else:
        idx = (element.mode_a, element.mode_b)
    return embed_matrix(element_matrix(element), idx, modes)


def embed_matrix(small: ModeUnitary, indices, modes: int) -> ModeUnitary:
    """Place a k-mode unitary at the given mode indices of an m-mode identity."""
    indices = _check_modes(modes, indices)
    if len(indices) != small.dim:
        raise ModeMismatchError(f"{small.dim}-mode matrix placed on {len(indices)} indices")
    full = np.eye(modes, dtype=complex)
    for a, ia in enumerate(indices):
        for b, ib in enumerate(indices):
            full[ia, ib] = small.matrix[a, b]
    return ModeUnitary(full)


def apply_unitary(state: FockState, u: ModeUnitary, modes=None) -> FockState:
    """Evolve a state under a mode unitary.

    With ``modes`` given, ``u`` acts on that subset (in the listed order)
    and the remaining modes are untouched; otherwise u.dim must equal the
    state's mode count. Photon number and norm are preserved.

    Each distinct sub-occupation of ``modes`` is expanded once and merged
    into the kept modes, by one of two routes that give the same state bit
    for bit: dicts, or numpy arrays on int64 rank keys (``_Keys``), which
    expand the sub-occupations of each photon total in one kernel call and
    merge everything with one ``np.bincount``, without a sort. The output
    bound, the sum over input terms of C(k+d-1, d-1) for k photons on the
    d evolved modes, picks the route: arrays from ``ARRAY_MIN_TERMS`` on,
    unless a column of ``u`` that an input photon enters holds an exact
    zero (0.0 or -0.0: the dict form lists only the outputs that nonzero
    entries reach). It raises ``BudgetExceeded``
    before expanding past ``MAX_EVOLVED_TERMS`` outputs or 300 photons.
    """
    if modes is None:
        if u.dim != state.modes:
            raise ModeMismatchError(f"{u.dim}x{u.dim} matrix on {state.modes}-mode state")
        modes = list(range(state.modes))
    else:
        modes = _check_modes(state.modes, modes)
        if len(modes) != u.dim:
            raise ModeMismatchError(f"{u.dim}-mode matrix applied to {len(modes)} modes")
    terms = list(state.terms())
    subs = [tuple(occ[m] for m in modes) for occ, _ in terms]
    mat = np.ascontiguousarray(u.matrix)
    occ = _route(terms, subs, mat, modes)
    if occ is None:
        result = _evolve_dicts(terms, subs, mat, modes)
    else:
        amp = np.array([a for _, a in terms], dtype=complex)
        plan = _evolution_plan(occ, modes)
        re, im = _evolved(plan, amp.real, amp.imag, mat)
        keys, layout, plan = plan[0], plan[3], None  # the rest freed before the output dict is built
        result = _unpack(keys, re, im, layout)
    return FockState(state.modes, result)


def _route(terms, subs, mat, modes):
    """The occupations of ``terms`` as rows (``_as_rows``) for the array route,
    or None for the dict route (``apply_unitary``); raises BudgetExceeded."""
    if _bound(subs, len(modes)) < ARRAY_MIN_TERMS or not _zero_free(mat, subs):
        return None
    return _as_rows([occ for occ, _ in terms], len(terms[0][0]))


def _as_rows(keys, modes):
    """The occupations ``keys``, a sized collection of ``modes``-tuples of a
    ``FockState``'s counts, as array rows: uint8, read as bytes in half the
    time, when every count is below 256, else int64."""
    try:
        flat = np.frombuffer(bytearray(chain.from_iterable(keys)), np.uint8)
    except ValueError:
        flat = np.fromiter(chain.from_iterable(keys), np.int64, len(keys) * modes)
    return flat.reshape(len(keys), modes)


def _zero_free(mat, subs):
    """Whether no column of ``mat`` that a sub-occupation fills holds an
    exact zero, as the array route's rank tables assume."""
    return bool(mat[:, np.array(subs).any(axis=0)].all())


def _bound(subs, d):
    """The output bound of evolving sub-occupations ``subs`` of ``d`` modes;
    raises BudgetExceeded past the budget or past 300 photons."""
    totals = list(map(sum, subs))
    bound = _within_budget(sum(math.comb(t + d - 1, d - 1) for t in totals))
    kernels._sqrt_factorials(max(totals, default=0))
    return bound


def _capped_comb(n, k):
    """C(n, k) as C(n - k + i, i), i = 1..min(k, n - k), stopped at the
    first past ``MAX_EVOLVED_TERMS`` (a lower bound then): each step at
    least doubles it, so n may be of any size."""
    count, k = 1, min(k, n - k)
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > MAX_EVOLVED_TERMS:
            break
    return count


def _within_budget(count, what="the evolution", least=False):
    """``count`` terms, or ``BudgetExceeded`` past ``MAX_EVOLVED_TERMS``
    saying that ``what`` may produce (at ``least``) that many: exactly
    below 10^30, past that (``str`` raises ``ValueError`` past 4,300
    digits) as an order of magnitude."""
    if count <= MAX_EVOLVED_TERMS:
        return count
    shown = str(count) if count < 10**30 else f"more than 10^{int((count.bit_length() - 1) * math.log10(2))}"
    raise BudgetExceeded(f"{what} may produce {'at least ' * least}{shown} terms; "
                         f"the limit is {MAX_EVOLVED_TERMS}")


def _evolve_dicts(terms, subs, mat, modes):
    """The merged amplitudes {occupation: amplitude}, one dict entry at a time."""
    expansions: dict = {}
    result: dict = {}
    for (occ, amp), sub in zip(terms, subs):
        expansion = expansions.get(sub)
        if expansion is None:
            expansion = kernels.expand_basis_state(mat, sub)
            expansions[sub] = expansion
        base = list(occ)
        for out_sub, coeff in expansion.items():
            for m, k in zip(modes, out_sub):
                base[m] = k
            key = tuple(base)
            result[key] = result.get(key, 0j) + amp * coeff
    return result


def _evolution_plan(occ, modes, states=None):
    """What ``_evolve_dicts`` does, on keys that the amplitudes and the
    unitary's values leave alone, for terms stacked as the rows of ``occ``
    (``_as_rows``): ``(keys, offset, parts, layout)``, the output's keys in
    the dict's order, the slot of each term's first product, per photon
    total, in order of first appearance, ``(occs, terms, rows)``: its
    distinct sub-occupations, sorted, expanded in one kernel call, the rows
    of its terms and each term's row in that call, and how the keys read
    (``_Keys``). A total's products follow its terms in row order, each
    term's outputs in rank order, and the totals follow one another.

    Every expansion of a total lists the same outputs in the same order
    (``kernels.outputs``). Two terms reach one output only with the same
    kept occupation and photon total, so the dict's order is the (kept,
    total) groups in order of first appearance, each group's outputs in
    that order: a term's products land at its group's offset plus their
    rank. With ``states``, each term's state in a pass, the patterns are
    sorted, so that keys sort by state, evolved counts, kept occupation;
    without, each total's outputs follow the total before, unsorted.
    """
    subs = occ[:, modes]
    totals = subs.sum(axis=1)
    totals_list = totals.tolist()
    sub, distinct = _ranked(subs)  # a total's distinct subs share one call, sorted
    sums = distinct.sum(axis=1)
    counts = {t: kernels.outputs(len(modes), t) for t in dict.fromkeys(totals_list)}
    at = dict(zip(counts, accumulate(map(len, counts.values()), initial=0)))
    patterns = np.concatenate(list(counts.values()))
    rest, rests = _ranked(np.delete(occ, modes, axis=1))
    # a key is (state * P + pattern) * K + kept; S, P and K are each at most
    # the output bound B <= MAX_EVOLVED_TERMS (every term adds at least 1 to
    # it), so keys stay below B^3 <= 8.0e18 < 2^63 and fit int64
    position, base = np.arange(len(patterns)), rest
    if states is not None:
        order = np.lexsort(patterns.T[::-1])
        patterns, position[order] = patterns[order], np.arange(len(patterns))
        base = states * (len(patterns) * len(rests)) + rest
    grouped = list(zip(base.tolist(), totals_list))
    groups = dict(zip(grouped, range(len(grouped))))  # a term of each group, any: its keys are the group's
    ends = list(accumulate(len(counts[t]) for _, t in groups))
    offset = np.array(list(map(dict(zip(groups, [0] + ends)).__getitem__, grouped)))
    keys, leads, parts = np.empty(ends[-1], dtype=np.int64), np.array(list(groups.values())), []
    for t in counts:
        terms, ids, lead = np.flatnonzero(totals == t), np.flatnonzero(sums == t), leads[totals[leads] == t]
        slot = (offset[lead, None] + np.arange(len(counts[t]))).ravel()
        keys[slot] = (base[lead, None] + position[at[t]:at[t] + len(counts[t])] * len(rests)).ravel()
        parts.append((distinct[ids], terms, np.searchsorted(ids, sub[terms])))
    return keys, offset, tuple(parts), _Keys((patterns, rests, modes))


class _Keys(tuple):
    """``(patterns, rests, modes)``: how the keys of an array evolution
    (``_evolution_plan``) read. A key is (state * P + pattern) * K + kept,
    its head state * P + pattern: ``pattern`` a row of ``patterns``, counts
    of the evolved ``modes`` in their listed order, ``kept`` a row of the
    sorted ``rests``, the kept modes' counts, ``state`` 0 out of a pass."""

    __slots__ = ()

    def states(self, keys):
        return keys // (len(self[0]) * len(self[1]))

    def heads(self, keys):
        return keys // len(self[1])

    def counts(self, heads):
        return self[0][heads % len(self[0])]

    def rests(self, keys):
        return self[1][keys % len(self[1])]

    def keys(self, heads, kept):
        """The keys of heads ``heads`` and kept ranks ``kept``."""
        return heads * len(self[1]) + kept

    def bare(self):
        """These keys' format with a pattern table of no columns: all but ``counts`` still reads."""
        return _Keys((np.empty((len(self[0]), 0), np.uint8), *self[1:]))


def _packed(rows):
    """Int64 columns, most significant first, that order the nonnegative
    integer ``rows`` lexicographically as their own columns do: runs of
    adjacent columns in mixed radix (a column's radix its maximum plus
    one), a run closed before the product of its radices would pass 2^63.
    Columns of zeros are left out; without any other, one column of zeros."""
    keys, span = [], 0
    for column, top in zip(rows.T, rows.max(axis=0, initial=0).tolist()):
        if not top:
            continue
        if keys and span * (top + 1) <= 1 << 63:
            keys[-1], span = keys[-1] * (top + 1) + column, span * (top + 1)
        else:
            keys.append(column.astype(np.int64))
            span = top + 1
    return keys or [np.zeros(len(rows), np.int64)]


def _ranked(rows):
    """Each row's rank among the distinct rows of the nonnegative integer
    array ``rows`` in lexicographic order, and those rows in that order, as
    int64."""
    keys = _packed(rows)
    # one key needs no stable sort: equal keys rank alike
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    opens = np.zeros(len(order), bool)
    opens[:1] = True
    for key in keys:
        key = key[order]
        opens[1:] |= key[1:] != key[:-1]
    rank = np.empty(len(order), np.int64)
    rank[order] = np.cumsum(opens) - 1
    return rank, rows[order[opens]].astype(np.int64)


def _evolved(plan, re, im, mat):
    """The real and imaginary parts of the output's amplitudes, in the
    order of the keys of ``plan`` (``_evolution_plan``), for terms whose
    amplitudes have the real and imaginary parts ``re`` and ``im``, with
    the bits of ``_evolve_dicts``: each total's products, amp * coeff as
    CPython forms it, in term order, added from 0.0 at their term's offset
    plus their rank by ``np.add.at``, formed a block of terms at a time in
    the kernels' workspace (``kernels._scratch``)."""
    keys, offset, parts, _ = plan
    real, imag = np.zeros(len(keys)), np.zeros(len(keys))
    for occs, terms, rows in parts:
        _, cre, cim = kernels.expand_basis_state(mat, occs, arrays=True)
        n = cre.shape[1]
        block = max(1, kernels._STEP_BLOCK // (5 * n))
        for start in range(0, len(terms), block):
            which, row = terms[start:start + block], rows[start:start + block]
            cr, ci, x, y, slot = kernels._scratch(len(row) * n, 5).reshape(5, len(row), n)
            slot = np.add(offset[which, None], np.arange(n), out=slot.view(np.int64)).ravel()
            # mode "clip" takes into ``out`` unbuffered: the rows are in range
            np.take(cre, row, axis=0, out=cr, mode="clip")
            np.take(cim, row, axis=0, out=ci, mode="clip")
            ar, ai = re[which, None], im[which, None]
            np.subtract(np.multiply(ar, cr, out=x), np.multiply(ai, ci, out=y), out=x)
            np.add.at(real, slot, x.ravel())
            np.add(np.multiply(ar, ci, out=x), np.multiply(ai, cr, out=y), out=x)
            np.add.at(imag, slot, x.ravel())
    return real, imag


def _unpack(keys, re, im, layout):
    """{occupation tuple: complex} of the keys of one state's evolution, in their order,
    decoded ``kernels.UNPACK_ROWS`` at a time in the smallest integer dtype that holds them."""
    patterns, rests, modes = layout
    kept = np.delete(np.arange(len(modes) + rests.shape[1]), modes)
    dtype = np.min_scalar_type(max(patterns.max(), rests.max(initial=0)))
    amps = np.empty(len(keys), dtype=complex)
    amps.real, amps.imag = re, im
    out: dict = {}
    for start in range(0, len(keys), kernels.UNPACK_ROWS):
        rows = slice(start, start + kernels.UNPACK_ROWS)
        pattern, rest = np.divmod(keys[rows], len(rests))
        counts = np.empty((len(rest), len(modes) + len(kept)), dtype=dtype)
        counts[:, modes], counts[:, kept] = patterns[pattern], rests[rest]
        out.update(zip(map(tuple, counts.tolist()), amps[rows].tolist()))
    return out


def apply_mode_unitary(state: FockState, u: ModeUnitary) -> FockState:
    """Full-width evolution (u.dim == state.modes)."""
    return apply_unitary(state, u)


def transition_amplitude(u: ModeUnitary, occ_in, occ_out) -> complex:
    """<out|U|in> via the matrix permanent.

    Independent of the multinomial expansion used by apply_unitary; serves
    as the cross-validation oracle. Equals
    perm(U[out, in]) / sqrt(prod in_i! prod out_j!) where rows/columns are
    repeated according to the occupations. The permanent of r photons
    walks 2^(r-1) sign vectors: past ``MAX_EVOLVED_TERMS`` of them (from
    22 photons on) it raises BudgetExceeded.
    """
    occ_in, occ_out = _integers(occ_in), _integers(occ_out)
    if len(occ_in) != u.dim or len(occ_out) != u.dim:
        raise ModeMismatchError("occupation length does not match matrix dimension")
    if min(occ_in + occ_out) < 0:
        raise InvalidOccupationError(f"negative count in occupation {occ_in} or {occ_out}")
    total = sum(occ_in)
    if total != sum(occ_out):
        return 0j
    if total - 1 >= MAX_EVOLVED_TERMS.bit_length():  # 2^(total - 1) > MAX_EVOLVED_TERMS
        raise BudgetExceeded(f"{total} photons: their permanent walks 2^{total - 1} sign vectors; "
                             f"the limit is {MAX_EVOLVED_TERMS}")
    scale = math.prod(map(kernels._sqrt_factorials(total).__getitem__, occ_in + occ_out))
    return kernels.permanent(u.matrix.repeat(occ_out, axis=0).repeat(occ_in, axis=1)) / scale


def compose(seq: ElementSequence) -> ModeUnitary:
    """Ordered product of the embedded elements times the global phase."""
    total = np.eye(seq.modes, dtype=complex) * seq.global_phase
    for element in seq.elements:
        total = embed(element, seq.modes).matrix @ total
    return ModeUnitary(total)


def decompose_reck(u: ModeUnitary, tol: float = UNITARY_TOL) -> ElementSequence:
    """Triangular (Reck-style) decomposition into O(m^2) elements.

    Entries below the diagonal are eliminated column by column with
    two-mode rotations (each a beam splitter preceded, when the local
    ratio is not real, by a phase shifter); what remains of a unitary is
    a diagonal of phases, realized by phase shifters. compose() of the
    result reproduces u entrywise.
    """
    work = np.array(u.matrix, dtype=complex)
    m = u.dim
    # sequence of (p, q, theta, phi) with G = B(theta) . P_p(phi) satisfying
    # (G work) zeroing work[q, col]
    rotations = []
    for col in range(m - 1):
        for q in range(m - 1, col, -1):
            p = q - 1
            up, uq = work[p, col], work[q, col]
            if abs(uq) < 1e-14:
                continue
            if abs(up) < 1e-14:
                theta, phi = math.pi / 2, 0.0
            else:
                ratio = -uq / up
                if abs(ratio.imag) < 1e-14:
                    theta, phi = math.atan(ratio.real), 0.0
                else:
                    theta, phi = math.atan(abs(ratio)), cmath.phase(ratio)
            g = np.eye(m, dtype=complex)
            c, s = math.cos(theta), math.sin(theta)
            e = cmath.exp(1j * phi)
            g[p, p], g[p, q] = c * e, -s
            g[q, p], g[q, q] = s * e, c
            work = g @ work
            rotations.append((p, q, theta, phi))
    off_diag = float(np.abs(work - np.diag(np.diag(work))).max())
    if off_diag > tol:
        raise NonUnitaryError(f"triangularization residual {off_diag:.3e}; input not unitary")
    elements = []
    for mode in range(m):
        delta = cmath.phase(work[mode, mode])
        if abs(delta) > 1e-13:
            elements.append(PhaseShifter(mode, delta))
    # U = G_1^dag ... G_K^dag D, so apply D first, then the G^dag in reverse
    for p, q, theta, phi in reversed(rotations):
        # G^dag = P_p(-phi) . B(-theta): beam splitter first in time order
        if abs(theta) > 1e-13:
            elements.append(BeamSplitter(p, q, -theta))
        if abs(phi) > 1e-13:
            elements.append(PhaseShifter(p, -phi))
    return ElementSequence(modes=m, elements=tuple(elements), global_phase=1.0 + 0j)


def random_unitary(dim: int, rng) -> ModeUnitary:
    """Haar-ish random unitary from QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return ModeUnitary(q)


# -- netlist interchange ----------------------------------------------------


def sequence_to_json(seq: ElementSequence) -> dict:
    elements = []
    for e in seq.elements:
        if isinstance(e, PhaseShifter):
            elements.append({"kind": "ps", "modes": [e.mode], "theta": e.theta})
        else:
            elements.append({"kind": "bs", "modes": [e.mode_a, e.mode_b], "theta": e.theta})
    return {
        "modes": seq.modes,
        "global_phase": {"re": complex(seq.global_phase).real, "im": complex(seq.global_phase).imag},
        "elements": elements,
    }


def sequence_from_json(data: dict) -> ElementSequence:
    elements = []
    for e in data["elements"]:
        if e["kind"] == "ps":
            elements.append(PhaseShifter(e["modes"][0], float(e["theta"])))
        elif e["kind"] == "bs":
            elements.append(BeamSplitter(e["modes"][0], e["modes"][1], float(e["theta"])))
        else:
            raise ValueError(f"unknown element kind {e['kind']!r}")
    phase = complex(data["global_phase"]["re"], data["global_phase"]["im"])
    return ElementSequence(modes=int(data["modes"]), elements=tuple(elements), global_phase=phase)


def dump_sequence(seq: ElementSequence) -> str:
    return json.dumps(sequence_to_json(seq), sort_keys=True, separators=(",", ":"))


def load_sequence(text: str) -> ElementSequence:
    return sequence_from_json(json.loads(text))
