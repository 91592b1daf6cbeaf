"""Sparse multimode Fock states and elementary state algebra.

States are stored as a sparse map from occupation tuples (photons per
mode) to complex amplitudes. All operations are pure: a FockState never
mutates after construction, so values can be shared freely.

Validation happens once, at the public edge: ``FockState(...)``,
``scaled``, ``number_state`` and ``state_from_json`` check the mode count,
every occupation (right length, counts as ``FockState`` states them) and
every amplitude (finite), in bulk when the keys are already tuples of
``int`` and the amplitudes ``complex`` (numpy's too), else key by key.
States built inside the package from keys sliced, joined or relabelled
from valid states (measurement post-states, phase corrections, tensor
products, permutations, sums, ``normalized``) go through the private
``FockState._trusted``, which skips only the key checks: both share
``_kept``, their arithmetic, on arrays from ``_ARRAY_TERMS`` (64) terms.
``optics.apply_unitary`` keeps the public constructor, one call per
evolution, which is what the per-layer trace counts as ``fock.construct``.

Mode indices are 0-based throughout.
"""

import cmath
import json
import math
from itertools import chain, compress
from numbers import Integral

import numpy as np

#: Default pruning tolerance, relative to the state norm. Exact protocol
#: amplitudes are dyadic/sqrt(2) combinations, far above rounding noise.
DEFAULT_TOL = 1e-12


def _squared_norm(amps) -> float:
    """The sum of ``abs(a) ** 2`` over ``amps``, left to right from 0.0 as ``np.bincount``
    adds, on every interpreter (the builtin ``sum`` of floats compensates from 3.12 on)."""
    total = 0.0
    for amp in amps:
        total += abs(amp) ** 2
    return total


#: Terms from which ``_kept`` works on arrays (level with its loops at 40).
_ARRAY_TERMS = 64


def _kept(amplitudes: dict, tol: float, typed: bool = False) -> dict:
    """A new dict of ``0j + amp`` of the nonzero terms past ``tol`` times their
    norm; non-finite ones raise. From ``_ARRAY_TERMS`` terms, all ``complex``
    (``typed`` vouches), on arrays with the loops' bits: ``np.bincount`` adds
    ``float_power(hypot(re, im), 2.0)``; an exact zero adds 0.0 and never passes
    the cutoff, even at tol 0, so only a -0.0 part needs ``0j +``."""
    if len(amplitudes) >= _ARRAY_TERMS and (typed or {*map(type, amplitudes.values())} <= {complex}):
        amps = np.fromiter(amplitudes.values(), complex, len(amplitudes))
        if np.signbit(amps.view(float)[amps.view(float) == 0]).any():
            return _kept({occ: 0j + amp for occ, amp in amplitudes.items() if amp != 0}, tol, True)
        with np.errstate(over="ignore"):
            size = np.hypot(amps.real, amps.imag)
            norm_sq = np.bincount(np.zeros(len(size), np.intp), np.float_power(size, 2.0), 1).item()
        if math.isfinite(norm_sq):
            keep = size > tol * math.sqrt(norm_sq)
            return dict(amplitudes) if keep.all() else dict(compress(amplitudes.items(), keep.tolist()))
    cleaned = {occ: 0j + amp for occ, amp in amplitudes.items() if amp != 0}
    try:
        norm_sq = _squared_norm(cleaned.values())
    except OverflowError:
        norm_sq = math.inf
    if not math.isfinite(norm_sq):
        bad = [occ for occ, amp in cleaned.items() if not cmath.isfinite(amp)]
        raise InvalidOccupationError(f"non-finite amplitude for {bad[0]}" if bad else
                                     "squared norm overflows: amplitudes too large")
    cutoff = tol * math.sqrt(norm_sq)
    return {occ: amp for occ, amp in cleaned.items() if abs(amp) > cutoff}


class FockError(Exception):
    """Base class for state-algebra errors."""


class InvalidOccupationError(FockError):
    """A count not an integer in 0..2^63 - 1, a mode count not an integer >= 0, or a wrong length."""


class ModeMismatchError(FockError):
    """Operands act on different numbers of modes."""


class ZeroStateError(FockError):
    """An operation produced or received a state with no support."""


class BudgetExceeded(FockError):
    """An output bound past ``optics.MAX_EVOLVED_TERMS``, or k > 300 photons (sqrt(k!) is no float)."""


class ModeIndexError(FockError, ValueError):
    """A mode index outside 0..modes-1."""


def _integers(occ) -> tuple:
    """``occ`` as a tuple of ``int``; a fractional count raises InvalidOccupationError."""
    occ = tuple(occ)
    if (counts := tuple(map(int, occ))) != occ:
        raise InvalidOccupationError(f"non-integral count in occupation {occ}")
    return counts


def _in_range(keys) -> bool:
    """Whether every count of ``keys``, tuples of ``int``, is in 0..2^63 - 1:
    one ``bytearray`` pass proves 0..255, the common case; min and max decide past it."""
    try:
        bytearray(chain.from_iterable(keys))
    except ValueError:
        return min(chain.from_iterable(keys)) >= 0 and not max(chain.from_iterable(keys)) >> 63
    return True


def _check_modes(modes: int, listed) -> list:
    """``listed`` as a list of distinct mode indices of a ``modes``-mode state."""
    listed = list(listed)
    if len(set(listed)) != len(listed):
        raise ValueError(f"duplicate modes in {listed}")
    for mode in listed:
        if not 0 <= mode < modes:
            raise ModeIndexError(f"mode {mode} out of range for a {modes}-mode state")
    return listed


class FockState:
    """Sparse state on a fixed number of bosonic modes.

    Amplitudes with magnitude <= tol * norm are dropped at construction;
    non-finite amplitudes are rejected. Every photon count is an integer in
    0..2^63 - 1, so every occupation reads as a row of int64 counts: a
    count outside that range raises InvalidOccupationError here, and no
    code past this constructor handles one.
    """

    __slots__ = ("modes", "_amp")

    def __init__(self, modes: int, amplitudes: dict, tol: float = DEFAULT_TOL):
        if not isinstance(modes, (int, Integral)):  # int first: it skips the slower ABC check
            raise InvalidOccupationError(f"mode count must be an integer, got {modes!r}")
        if modes < 0:
            raise InvalidOccupationError(f"mode count must be >= 0, got {modes}")
        modes = int(modes)
        keys, kinds = amplitudes.keys(), {*map(type, amplitudes.values())}
        if ({*map(type, keys)} <= {tuple} and {*map(len, keys)} <= {modes} and kinds <= {complex, np.cdouble}
                and {*map(type, chain.from_iterable(keys))} <= {int} and _in_range(keys)):
            if np.cdouble in kinds:  # checked in bulk; complex() keeps numpy's bits
                amplitudes = dict(zip(keys, map(complex, amplitudes.values())))
            self._amp, self.modes = _kept(amplitudes, tol, True), modes
            return
        cleaned = {}
        for occ, amp in amplitudes.items():
            occ = _integers(occ)
            if len(occ) != modes:
                raise InvalidOccupationError(
                    f"occupation {occ} has length {len(occ)}, expected {modes}"
                )
            try:
                bytearray(occ)  # proves 0..255 at once: min and max decide past it
            except ValueError:
                if min(occ) < 0 or max(occ) >> 63:
                    what = "negative count" if min(occ) < 0 else "count past 2^63 - 1"
                    raise InvalidOccupationError(f"{what} in occupation {occ}") from None
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise InvalidOccupationError(f"non-finite amplitude for {occ}")
            if amp != 0:
                cleaned[occ] = cleaned[occ] + amp if occ in cleaned else amp  # 0j + in _kept
        self._amp, self.modes = _kept(cleaned, tol, True), modes

    @classmethod
    def _trusted(cls, modes: int, amplitudes: dict, tol: float = DEFAULT_TOL) -> "FockState":
        """A state from occupations that are valid by construction.

        For keys sliced, joined or relabelled from valid states: the
        arithmetic of ``__init__`` (``_kept``) without its per-key checks,
        so the result is bit-identical, non-finite amplitudes rejected.
        """
        state = object.__new__(cls)
        state._amp, state.modes = _kept(amplitudes, tol), modes
        return state

    # -- accessors ---------------------------------------------------------

    def terms(self):
        """Iterate (occupation, amplitude) in canonical (lexicographic) order."""
        for occ in sorted(self._amp):
            yield occ, self._amp[occ]

    def amplitude(self, occ) -> complex:
        return self._amp.get(tuple(occ), 0j)

    def term_count(self) -> int:
        return len(self._amp)

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self._amp.values()))

    def total_photons(self):
        """Set of total photon numbers present across terms."""
        return {sum(occ) for occ in self._amp}

    def max_occupation(self, mode: int) -> int:
        _check_modes(self.modes, [mode])
        if not self._amp:
            return 0
        return max(occ[mode] for occ in self._amp)

    # -- algebra -----------------------------------------------------------

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0:
            raise ZeroStateError("cannot normalize a zero state")
        factor = 1.0 / n
        amp = {o: a * factor for o, a in self._amp.items()}
        return FockState._trusted(self.modes, amp, tol=0.0)

    def scaled(self, factor: complex) -> "FockState":
        return FockState(self.modes, {o: a * factor for o, a in self._amp.items()}, tol=0.0)

    def __add__(self, other: "FockState") -> "FockState":
        if self.modes != other.modes:
            raise ModeMismatchError(f"{self.modes} vs {other.modes} modes")
        amp = dict(self._amp)
        for occ, a in other._amp.items():
            amp[occ] = amp.get(occ, 0j) + a
        return FockState._trusted(self.modes, amp, tol=0.0)

    def __repr__(self):
        parts = [f"{amp:.6g}|{','.join(map(str, occ))}>" for occ, amp in self.terms()]
        body = " + ".join(parts[:6]) + (" + ..." if len(parts) > 6 else "")
        return f"FockState({self.modes} modes: {body})"


def number_state(counts) -> FockState:
    """|k_0 k_1 ... k_{m-1}> with amplitude 1."""
    counts = _integers(counts)
    return FockState(len(counts), {counts: 1.0 + 0j})


def vacuum(modes: int) -> FockState:
    return number_state((0,) * modes)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; b's modes are appended after a's."""
    amp = {}
    for occ_a, amp_a in a._amp.items():
        for occ_b, amp_b in b._amp.items():
            amp[occ_a + occ_b] = amp_a * amp_b
    return FockState._trusted(a.modes + b.modes, amp, tol=0.0)


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b>, conjugate-linear in a."""
    if a.modes != b.modes:
        raise ModeMismatchError(f"{a.modes} vs {b.modes} modes")
    small, large = (a._amp, b._amp) if len(a._amp) <= len(b._amp) else (b._amp, a._amp)
    total = 0j
    if small is a._amp:
        for occ, amp in small.items():
            total += amp.conjugate() * large.get(occ, 0j)
    else:
        for occ, amp in small.items():
            total += large.get(occ, 0j).conjugate() * amp
    return total


def canonicalize(state: FockState, tol: float = DEFAULT_TOL, renormalize: bool = True) -> FockState:
    """Prune amplitudes with |amp| <= tol * norm, then optionally renormalize.

    The threshold is relative to the norm so the operation is idempotent
    regardless of the input's normalization.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    pruned = FockState(state.modes, state._amp, tol=tol)
    if pruned.term_count() == 0:
        raise ZeroStateError("all terms pruned")
    return pruned.normalized() if renormalize else pruned


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for normalized states; insensitive to global phase."""
    return abs(inner_product(a, b)) ** 2


def states_close(a: FockState, b: FockState, tol: float = 1e-10) -> bool:
    """Term-for-term amplitude agreement (phase-sensitive)."""
    if a.modes != b.modes:
        return False
    keys = set(a._amp) | set(b._amp)
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= tol for k in keys)


def permute_modes(state: FockState, perm) -> FockState:
    """Relabel modes: output mode i holds what input mode perm[i] held."""
    perm = list(perm)
    if sorted(perm) != list(range(state.modes)):
        raise ModeMismatchError(f"{perm} is not a permutation of 0..{state.modes - 1}")
    amp = {tuple(occ[p] for p in perm): a for occ, a in state._amp.items()}
    return FockState._trusted(state.modes, amp, tol=0.0)


def swap_modes(state: FockState, i: int, j: int) -> FockState:
    perm = list(range(state.modes))
    perm[i], perm[j] = perm[j], perm[i]
    return permute_modes(state, perm)


def reduced_density_matrix(state: FockState, modes):
    """Density matrix of the given modes after tracing out the rest.

    Returns (matrix, basis) where basis lists the occupation tuples
    labelling the rows/columns. Used for entanglement diagnostics only;
    the simulator itself stays pure-state.
    """
    modes = list(modes)
    rest = [m for m in range(state.modes) if m not in modes]
    blocks = {}
    for occ, amp in state._amp.items():
        kept = tuple(occ[m] for m in modes)
        env = tuple(occ[m] for m in rest)
        blocks.setdefault(env, {})[kept] = amp
    basis = sorted({k for block in blocks.values() for k in block})
    index = {k: i for i, k in enumerate(basis)}
    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    for block in blocks.values():
        for k1, a1 in block.items():
            for k2, a2 in block.items():
                rho[index[k1], index[k2]] += a1 * a2.conjugate()
    return rho, basis


def entanglement_entropy(state: FockState, modes) -> float:
    """Von Neumann entropy (bits) of the reduced state of ``modes``."""
    rho, _ = reduced_density_matrix(state.normalized(), modes)
    eigs = np.linalg.eigvalsh(rho)
    return float(-sum(p * math.log2(p) for p in eigs if p > 1e-15))


def schmidt_coefficients(state: FockState, modes):
    """Schmidt coefficients across the (modes | rest) bipartition, descending."""
    rho, _ = reduced_density_matrix(state.normalized(), modes)
    eigs = sorted((max(float(x), 0.0) for x in np.linalg.eigvalsh(rho)), reverse=True)
    return [math.sqrt(p) for p in eigs if p > 1e-15]


# -- JSON interchange ------------------------------------------------------


def state_to_json(state: FockState) -> dict:
    """{"modes": m, "terms": [{"occ": [...], "re": x, "im": y}, ...]}."""
    return {
        "modes": state.modes,
        "terms": [
            {"occ": list(occ), "re": amp.real, "im": amp.imag}
            for occ, amp in state.terms()
        ],
    }


def state_from_json(data: dict) -> FockState:
    amp = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in data["terms"]}
    return FockState(int(data["modes"]), amp, tol=0.0)


def dump_state(state: FockState) -> str:
    return json.dumps(state_to_json(state), sort_keys=True, separators=(",", ":"))


def load_state(text: str) -> FockState:
    return state_from_json(json.loads(text))


def phase_on_mode(state: FockState, mode: int, angle: float) -> FockState:
    """Multiply each term by e^{i*angle*occ[mode]} (an ideal phase shifter)."""
    _check_modes(state.modes, [mode])
    rot = cmath.exp(1j * angle)
    amp = {occ: a * rot ** occ[mode] for occ, a in state._amp.items()}
    return FockState._trusted(state.modes, amp, tol=0.0)
