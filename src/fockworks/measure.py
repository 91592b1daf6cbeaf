"""Destructive photodetection: branch enumeration, post-selection, sampling.

Measured modes are removed from the state (detection destroys the
photons); non-destructive projections are built by tensoring fresh
ancilla modes. A fan-out counter spreads each measured mode over N
bucket detectors (the mode and N - 1 vacuum modes behind an N-port
Fourier multiport) and reports how many fired; a bucket detector is a
fan-out onto one detector. Every measured mode is fanned out first, then
the terms are grouped once by clicks per measured mode: a class's
probability is the exact joint Born-rule sum over every detector pattern
it holds, and its post_state the coherent merge, the renormalized
projection onto the class, which keeps coherence between merged patterns
(adequate for the heralding diagnostics this package needs).

A branch whose probability, relative to the measured state, is below
``IMPOSSIBLE`` is impossible: no branch list or sampler reports it, and
``postselect`` reports it with probability 0.

Every grouping of a state into branches (``measure_modes`` under any
model, ``postselect``, ``fanout_count``) runs through ``_groups``. A
state of at least ``ARRAY_MIN_GROUP_TERMS`` terms is grouped on arrays
(``_array_groups``): one sort into the order the dict loop meets its
terms, every sum by ``np.bincount`` in that order, so the bits are the
loop's. Smaller states take the dict loop (``_dict_groups``): below the
cut numpy's fixed cost per call, and per branch read, outweighs what the
loop spends per term. Arrays
give their records a ``_Block``, the format of a pass's records, so
stage 1 of a teleported gate (one ``measure_modes`` of a few thousand
terms) reaches stage 2 through ``_projected`` with no dict read back
into arrays.

A measured state's branches are one record, ``_Records``: count
patterns, probabilities and weights as columns, over a store of kept
amplitudes (``_Groups`` of dicts, or a ``_Block`` of arrays).
``records[i]`` is a ``ConditionalOutcome`` made on first read, and
``records.state(i, corrections)`` a post-state projected (and corrected)
when its terms are first read; its weight is taken at that read, from the
group's dict, bit for bit the records' own. Every protocol detection is
one stage of ``protocols._detect``, which builds a branch's dict from
``counts``, ``p`` and ``state`` only when the branch is read. Every
exact stage behind a mode unitary takes its records from
``_evolved_groups``, bit for bit those of ``measure_modes`` after
``apply_unitary``: a large single state (``teleport_tn``, stage 1 of the
teleported gates) and the second detection of every stage-1 success of a
teleported gate each run as one pass over rank keys, whose sort and
groups are planned once per stack of occupations and reused by every pass
on them (the amplitudes change from call to call, the occupations do
not), and a small single state takes ``apply_unitary`` and
``measure_modes``. The stage-1 successes reach the second detection as
stacked arrays (``_projected``, a ``_Terms``), with the bits their
projected post-states would have, so none is built as a state unless its
branch is read. A sampled run projects only the one branch it draws,
stage by stage: ``_Records.drawn``, one ``_drawer`` draw over the records
of ``measure_modes``, or, behind a mode unitary (the Fourier
multiports), ``_sample_detection``, which neither evolves nor groups the
whole state: it draws an incoherent sector of the input, draws a count
pattern of it (by boson sampling, or, for a coherent sector, by the
first route after ``apply_unitary`` of it alone), and builds the
post-state of that one pattern from transition amplitudes. Its
post-state equals the exact branch to rounding (1e-10), not bit for bit.
"""

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from numbers import Integral
from operator import itemgetter

import numpy as np

from . import fock, optics
from ._backend import kernels
from .fock import FockError, FockState, ZeroStateError, _check_modes

#: Relative probability below which a branch is impossible.
IMPOSSIBLE = 1e-24
#: Terms from which ``_groups`` groups a state on arrays. Forced each way,
#: grouping alone was level near 50 terms, but a branch read from arrays
#: costs about 5 us more to decode than a dict, so grouping and then
#: projecting every branch was level near 800-1,300 terms.
ARRAY_MIN_GROUP_TERMS = 1024
#: Summed output bound of the states one pass of ``_evolved_groups``
#: evolves together, which bounds the pass's arrays.
_PASS_TERMS = 1 << 16


@dataclass(frozen=True)
class Counter:
    """Ideal photon-number-resolving detector."""


@dataclass(frozen=True)
class Bucket:
    """Click/no-click detector: outcome 0 or 1 (one or more photons)."""


class DetectorModelError(FockError, ValueError):
    """Not a detector model, or a fan-out onto fewer than one detector."""


@dataclass(frozen=True)
class FanoutCounter:
    """Approximate counter: 1/sqrt(N) fan-out into N modes, each with a bucket.

    Outcome is the number of detectors that fire; it equals the photon
    number unless two or more photons bunch into one fan-out mode.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, Integral) or self.n < 1:
            raise DetectorModelError(f"fan-out requires an integer N >= 1, got {self.n!r}")


DetectorModel = Counter | Bucket | FanoutCounter


@dataclass(frozen=True)
class ConditionalOutcome:
    """One measurement branch.

    outcome: tuple of (mode, count) pairs; probability: exact branch
    probability; post_state: normalized state on the remaining modes, or
    None when the branch is impossible (probability 0).
    """

    outcome: tuple
    probability: float
    post_state: FockState | None

    @property
    def is_impossible(self) -> bool:
        return self.post_state is None

    def to_json(self) -> dict:
        return {
            "outcome": [[m, c] for m, c in self.outcome],
            "p": self.probability,
            "state": None if self.post_state is None else fock.state_to_json(self.post_state),
        }


def _picker(indices):
    """occ -> the tuple of its entries at ``indices``, in that order."""
    if len(indices) == 1:
        (i,) = indices
        return lambda occ: (occ[i],)
    if not indices:
        return lambda occ: ()
    return itemgetter(*indices)


def _split(state: FockState, modes):
    """Pickers for the measured counts and for the surviving modes' occupation."""
    pos = set(modes)
    return _picker(modes), _picker([i for i in range(state.modes) if i not in pos])


def _projection(modes: int, amps: dict, weight: float) -> FockState:
    """The normalised post-state: pruned relative to its own norm, then scaled
    by 1/sqrt(weight)."""
    pruned = FockState._trusted(modes, amps)
    factor = 1 / math.sqrt(weight)
    return FockState._trusted(modes, {o: a * factor for o, a in pruned._amp.items()}, tol=0.0)


def _weight(state: FockState) -> float:
    total = state.norm() ** 2
    if total == 0:
        raise ZeroStateError("cannot measure a zero state")
    return total


def measure_modes(state: FockState, modes, model: DetectorModel = Counter()) -> "_Records":
    """Every measurement branch, in canonical outcome order, as ``_Records``.

    Branch probabilities sum to 1 (the input is normalized internally). A
    branch whose probability is below ``IMPOSSIBLE`` is left out; a
    click class whose merged amplitudes cancel raises ZeroStateError.
    ``records[i]`` is branch i's ``ConditionalOutcome``, made on first read
    and kept; its post-state is projected when its terms are first read,
    so a caller reading one branch projects one. A model other than the
    three raises DetectorModelError.
    """
    modes = _check_modes(state.modes, modes)
    if isinstance(model, Bucket):
        model = FanoutCounter(1)
    if isinstance(model, Counter):
        return _groups(state, modes)
    if isinstance(model, FanoutCounter):
        return _groups(*_fanned(state, modes, model.n), model.n)
    raise DetectorModelError(f"unknown detector model {model!r}")


def _fanned(state: FockState, modes, n):
    """``state`` with every mode of ``modes`` fanned out onto n detectors, and
    those detectors: the mode and its spread, n - 1 vacuum modes appended
    after the state's own, run by one n-port Fourier multiport per mode."""
    if n == 1:
        return state, modes
    if n * n > optics.MAX_EVOLVED_TERMS:  # the multiport, n^2 entries, is built and kept per n
        raise fock.BudgetExceeded(f"a fan-out onto {n} detectors needs an {n}-port multiport of "
                                  f"{n * n} entries; the limit is {optics.MAX_EVOLVED_TERMS}")
    first = state.modes
    state = fock.tensor(state, fock.vacuum(len(modes) * (n - 1)))
    detectors = []
    for i, mode in enumerate(modes):
        spread = [mode, *range(first + i * (n - 1), first + (i + 1) * (n - 1))]
        state = optics.apply_unitary(state, optics.fourier_matrix(n - 1), spread)
        detectors += spread
    return state, detectors


class _Records(Sequence):
    """The branches of one measured state, column by column, in canonical
    order: the count patterns, rows of the unsigned or int64 array
    ``counts``, of the ``measured`` modes; their probabilities, the float64
    array ``p``; and the kept amplitudes of each, the dict
    ``block(rows[i])`` of squared norm ``weight[i]`` (float64 too),
    projected onto a post-state of ``modes`` modes. Indexed, it gives branch
    i's ``ConditionalOutcome``, made on first read and kept, of post-state
    ``state(i)``; sliced, the records of those branches alone."""

    __slots__ = ("modes", "measured", "counts", "p", "weight", "block", "rows", "_read")

    def __init__(self, modes, measured, counts, p, weight, block, rows):
        self.modes, self.measured, self.counts, self.p = modes, measured, counts, p
        self.weight, self.block, self.rows, self._read = weight, block, rows, {}

    def __len__(self):
        return len(self.p)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Records(self.modes, self.measured, self.counts[i], self.p[i], self.weight[i],
                            self.block, self.rows[i])
        i = range(len(self.p))[i]
        if (outcome := self._read.get(i)) is None:
            pattern = tuple(zip(self.measured, self.counts[i].tolist()))
            outcome = ConditionalOutcome(pattern, self.p.item(i), _BranchState(self, i))
            self._read[i] = outcome
        return outcome

    @property
    def state(self):
        """``state(i, fixes=())``: branch i's lazy post-state, then ``fixes``, in one call."""
        return partial(_BranchState, self)

    def drawn(self, rng) -> "_Records":
        """The one-row records of the branch one ``_drawer`` draw of ``rng`` selects."""
        i = _drawer(self.p.tolist())(rng.random())
        return self[i:i + 1]


class _BranchState(FockState):
    """Branch ``i`` of ``records``, projected, then ``_corrected``. Until its
    terms are first read it holds the records' ``block``, its ``row`` and the
    ``corrections``, and no state. The weight is taken at that read, as
    ``fock._squared_norm`` of the decoded group: every store sums the same
    ``abs(a) ** 2`` in the same order from 0.0, so it is the records' weight."""

    __slots__ = ("_block", "_row", "_corrections")

    def __init__(self, records, i, corrections=()):
        self.modes, self._block, self._row = records.modes, records.block, records.rows[i]
        self._corrections = corrections

    def __getattr__(self, name):
        # reached only while the ``_amp`` slot is unset
        if name != "_amp":
            raise AttributeError(name)
        group = self._block(self._row)
        built = _projection(self.modes, group, fock._squared_norm(group.values()))
        self._amp = _corrected(built, self._corrections)._amp
        del self._block, self._row, self._corrections
        return self._amp


def _corrected(state, corrections):
    """``state`` after the feed-forward ``corrections``, in order."""
    for kind, a, b in corrections:
        state = fock.phase_on_mode(state, a, b) if kind == "phase" else fock.swap_modes(state, a, b)
    return state


def _dict_records(modes, measured, counts, p, weight, groups):
    """The ``_Records`` of groups held as dicts, ``groups[i]`` that of branch ``i``."""
    patterns = np.array(counts, dtype=np.int64).reshape(len(p), len(measured))
    return _Records(modes, measured, patterns, np.array(p, dtype=float),
                    np.array(weight, dtype=float), _Groups(groups), range(len(p)))


class _Groups(list):
    """Kept amplitudes held as dicts; called with a group's index, it gives
    that group's ``{kept occupation: amplitude}`` dict."""

    __slots__ = ()

    __call__ = list.__getitem__

    def terms(self, groups, modes):
        """The terms of ``groups``, stacked group after group in dict order:
        the rows of their ``modes``-mode occupations (``optics._as_rows``), the
        real and imaginary parts of their amplitudes and each group's term
        count."""
        dicts = [self[g] for g in groups]
        occ = optics._as_rows(list(chain.from_iterable(dicts)), modes)
        amp = np.fromiter(chain.from_iterable(map(dict.values, dicts)), complex, len(occ))
        return occ, amp.real, amp.imag, list(map(len, dicts))


def _groups(state: FockState, detectors, n=None):
    """The branches of measure_modes as its ``_Records``: Counter ones of the
    modes ``detectors``, or, with ``n``, the click classes of a state that
    ``_fanned`` fanned out onto the runs of n ``detectors``, each run's
    class the number of its detectors that fired. A state of at least
    ``ARRAY_MIN_GROUP_TERMS`` terms is grouped on arrays, bit for bit as
    the dict loop groups it."""
    if len(state._amp) >= ARRAY_MIN_GROUP_TERMS:
        return _array_groups(state, detectors, n)
    return _dict_groups(state, detectors, n)


def _dict_groups(state: FockState, detectors, n=None):
    """``_groups`` one term at a time, in ``terms()`` order."""
    measured, kept = _split(state, detectors)
    modes = detectors if n is None else detectors[::n]  # a run starts at its mode
    runs = range(0, len(detectors), n or 1)
    total = _weight(state)
    groups: dict = {}
    mass: dict = {}  # click classes: the summed |amp|^2 of their detector patterns
    rests: dict = {}  # one tuple per kept occupation, shared by every post-state
    for occ, amp in state.terms():
        counts = measured(occ)
        if n:
            counts = tuple(sum(c > 0 for c in counts[a:a + n]) for a in runs)
            mass[counts] = mass.get(counts, 0.0) + abs(amp) ** 2
        group = groups.get(counts)
        if group is None:
            group = groups[counts] = {}
        rest = kept(occ)
        rest = rests.setdefault(rest, rest)
        group[rest] = group.get(rest, 0j) + amp
    listed, ps, weights, kept_groups = [], [], [], []
    for counts in sorted(groups):
        group = groups[counts]
        weight = fock._squared_norm(group.values())
        p = (mass[counts] if n else weight) / total
        if p < IMPOSSIBLE:
            continue
        if weight == 0:
            raise ZeroStateError(f"click class {counts} cancels coherently")
        listed.append(counts), ps.append(p), weights.append(weight), kept_groups.append(group)
    return _dict_records(state.modes - len(detectors), modes, listed, ps, weights, kept_groups)


def _array_groups(state: FockState, detectors, n=None):
    """``_groups`` on arrays. The terms, read once in dict order
    (``optics._as_rows``), are sorted into the order the dict loop meets
    them in each group: by pattern (the measured counts in their listed
    order, or a fan-out's clicks per run), then occupation. Every sum runs
    from 0.0 in that order, by ``np.bincount``, as the loop adds: the kept
    amplitudes (a fan-out class merges the detector patterns that share a
    kept occupation, listed where the class first meets it), the weights
    and a fan-out's class masses; the total runs in dict order, as
    ``_weight`` adds. The records hold a ``_Block`` on rank keys
    (``optics._Keys``): a pattern's rank among the sorted distinct ones is
    its head, and a kept occupation's among the sorted distinct ones its
    kept rank."""
    size = len(state._amp)
    occ = optics._as_rows(state._amp, state.modes)
    amp = np.fromiter(state._amp.values(), complex, size)
    square = np.float_power(np.hypot(amp.real, amp.imag), 2.0)  # abs(a) ** 2
    total = math.sqrt(np.bincount(np.zeros(size, np.intp), square, 1).item()) ** 2
    if total == 0:
        raise ZeroStateError("cannot measure a zero state")
    pattern = occ[:, detectors]
    if n:
        pattern = (pattern > 0).reshape(size, len(detectors) // n, n).sum(axis=2)
    head, patterns = optics._ranked(pattern)
    rest, rests = optics._ranked(np.delete(occ, detectors, axis=1))
    modes = detectors if n is None else detectors[::n]
    layout = optics._Keys((patterns, rests, modes))
    pair = layout.keys(head, rest)
    if n:  # a class meets its terms in terms() order, and its kept occupations in first appearance
        order = np.lexsort([*optics._packed(occ)[::-1], head])
        keys, first, slot = np.unique(pair[order], return_index=True, return_inverse=True)
        listed = np.argsort(first)
        keys, slot = keys[listed], np.argsort(listed)[slot]
        re = np.bincount(slot, amp.real[order], len(keys))
        im = np.bincount(slot, amp.imag[order], len(keys))
        squares = np.float_power(np.hypot(re, im), 2.0)
        mass = np.bincount(head[order], square[order], len(patterns))
    else:  # one term per kept occupation of a pattern, its amplitude 0j + amp
        order = np.argsort(pair)
        keys, re, im = pair[order], 0.0 + amp.real[order], 0.0 + amp.imag[order]
        squares, mass = square[order], None
    return _block_records(state.modes - len(detectors), modes, patterns, layout.heads(keys),
                          squares, (keys, re, im, layout), total, [0, len(patterns)], mass)[0]


def _block_records(post, measured, counts, group, square, block, total, firsts, mass=None):
    """The ``_Records`` of the states of one block of grouped rows:
    ``block`` is ``(keys, re, im, layout)``, the rows of every group in
    turn (a ``_Block`` without its spans), ``group`` each row's group and
    ``square`` its |amp|^2, ``counts`` each group's pattern, and ``firsts``
    where each state's groups start, then their end. A group weighs its
    squares summed from 0.0 in row order; it is impossible where its
    weight, or its ``mass`` if given (a fan-out class's), over ``total``
    (its state's, or per group) is below ``IMPOSSIBLE``, and a possible
    group that weighs 0 raises ZeroStateError, as ``_dict_groups`` does."""
    weight = np.bincount(group, square, len(counts))
    p = (weight if mass is None else mass) / total
    held = np.bincount(group, minlength=len(counts))
    possible = np.flatnonzero(p >= IMPOSSIBLE)
    counts, p, weight = counts.take(possible, axis=0), p.take(possible), weight.take(possible)
    if not weight.all():
        pattern = tuple(counts[np.argmax(weight == 0)].tolist())
        raise ZeroStateError(f"click class {pattern} cancels coherently")
    stops = np.cumsum(held).take(possible)
    block = _Block((*block, stops - held.take(possible), stops))
    # each state's first possible group, then their end
    bounds = np.searchsorted(possible, firsts).tolist()
    return [_Records(post, measured, counts[a:b], p[a:b], weight[a:b], block, range(a, b))
            for a, b in zip(bounds, bounds[1:])]


class _Terms(tuple):
    """``(modes, occ, re, im, starts, state)``: the terms of states on
    ``modes`` modes, stacked state after state, each in ``terms()`` order:
    the rows of ``occ`` (``optics._as_rows``), the real and imaginary parts
    ``re`` and ``im`` of their amplitudes, ``starts``, each state's first
    row and then the end, and ``state(i)``, state i as a ``FockState``."""

    __slots__ = ()

    @classmethod
    def of(cls, states):
        """The stacked terms of the list ``states``, all on one mode count."""
        terms = [list(state.terms()) for state in states]
        flat = list(chain.from_iterable(terms))
        modes = states[0].modes if states else 0
        occ = optics._as_rows([occ for occ, _ in flat], modes)
        amp = np.array([a for _, a in flat], dtype=complex)
        starts = list(accumulate(map(len, terms), initial=0))
        return cls((modes, occ, amp.real, amp.imag, starts, states.__getitem__))


def _projected(records, indices):
    """The post-states of branches ``indices`` of the Counter ``records`` as
    ``_Terms``, each that of ``_projection(records.modes, group, weight)``,
    bit for bit, without building it: a group's kept amplitudes, read from
    the records' block as arrays, take the arithmetic of
    ``FockState._trusted`` (``0j + amp``, exact zeros dropped, pruned at
    ``fock.DEFAULT_TOL`` times the group's own norm, summed in dict order),
    then the product by ``1 / sqrt(weight)`` as CPython multiplies a complex
    by a float, and ``_trusted`` again at tolerance 0. Either store holds a
    Counter group's rows in ``terms()`` order (the dict loop meets them so,
    a ``_Block``'s keys ascend). A norm that is not finite projects every
    branch through ``_projection``, which raises what it raises.
    """
    modes = records.modes
    groups = [records.rows[i] for i in indices]
    weight = records.weight[indices]

    def state(j):
        return _projection(modes, records.block(groups[j]), weight.item(j))

    occ, re, im, lengths = records.block.terms(groups, modes)
    owner = np.repeat(np.arange(len(groups)), lengths)
    re, im = 0.0 + re, 0.0 + im
    size = np.hypot(re, im)
    norm_sq = np.bincount(owner, np.float_power(size, 2.0), len(groups))
    if not np.isfinite(norm_sq).all():
        return _Terms.of([state(j) for j in range(len(groups))])
    keep = size > fock.DEFAULT_TOL * np.sqrt(norm_sq)[owner]  # exact zeros too
    factor = (1 / np.sqrt(weight))[owner]
    # |amp * factor| <= 1: the second norm cannot overflow
    re, im = 0.0 + (re * factor - im * 0.0), 0.0 + (re * 0.0 + im * factor)
    keep &= (re != 0) | (im != 0)
    occ, re, im, owner = occ[keep], re[keep], im[keep], owner[keep]
    starts = np.searchsorted(owner, np.arange(len(groups) + 1)).tolist()
    return _Terms((modes, occ, re, im, starts, state))


def _evolved_groups(states, u, modes):
    """Yields ``measure_modes(apply_unitary(state, u, modes), modes)`` of
    every state of ``states`` in turn, bit for bit: the records of a pass
    share its sorted arrays, a ``_Block``, from which a group's kept
    amplitudes are decoded on demand.
    ``states`` is a list of states on one mode count or their ``_Terms``
    (``_projected`` hands a stage's branches over so).

    ``BudgetExceeded`` applies to each state, as ``apply_unitary`` applies
    it, and to the states' summed output bound, all before the first pass. A
    list of one state takes a pass where ``apply_unitary`` would take its
    array route, from an output bound of ``optics.ARRAY_MIN_TERMS`` on;
    below it, it is evolved and measured on its own, its bound read from
    its keys before anything is stacked. Other states are evaluated in
    passes: runs of states, in order, whose summed output bound stays
    within ``_PASS_TERMS``. A pass merges its states' stacked terms as
    ``apply_unitary`` does, expanding the distinct sub-occupations of each
    photon total in one kernel call, on rank keys (``optics._Keys``) that
    sort by state, then measured counts in the listed order, then kept
    occupation: sorted, they are in ``_groups``' order, a group one key
    head. The keys, their sort and their groups depend on the stacked
    occupations alone: they are a pass's plan (``_pass_plan``), built once
    and held in the kernels' store, so that the passes of a fixed network
    on the same occupations (every exact ``teleport_tn`` at one n, every
    second detection of a teleported gate) only evaluate it
    (``_pass_groups``). Each state then takes the arithmetic of the
    validated constructor and of ``_groups``: |a|^2 as
    ``float_power(hypot(re, im), 2.0)``, which is ``abs(a) ** 2``, and
    every sum from 0.0 in dict order, by ``np.bincount``; the pruned terms
    are dropped from the sorted rows, and a group left with none is
    impossible. A state without terms, and a pass that meets a zero or an
    overflowing norm or an exact zero in a filled column of ``u`` (which the
    array route cannot take), are evolved and measured state by state, which
    raises what the per-state calls raise.
    """
    modes = list(modes)

    def one(state):
        return measure_modes(optics.apply_unitary(state, u, modes), modes)

    lone = not isinstance(states, _Terms) and len(states) == 1
    if lone and optics._bound(map(_picker(modes), states[0]._amp),
                              len(modes)) < optics.ARRAY_MIN_TERMS:
        yield one(states[0])
        return
    terms = states if isinstance(states, _Terms) else _Terms.of(states)
    _, occ, _, _, starts, state = terms
    count, d = len(starts) - 1, len(modes)
    lengths = np.diff(starts)
    owner = np.repeat(np.arange(count), lengths)
    # each term's output bound, capped past the budget; _bound refuses past 300
    # photons whatever the bound: counts clipped at 301 mark that, and no sum wraps
    photons = np.minimum(occ[:, modes], 301, dtype=np.int64).sum(axis=1)
    values, which = np.unique(photons, return_inverse=True)
    bounds = [optics._capped_comb(k + d - 1, d - 1) if k <= 300 else math.inf
              for k in values.tolist()]
    sizes = np.bincount(owner, np.array(bounds, dtype=float)[which], count)
    if (past := sizes > optics.MAX_EVOLVED_TERMS).any():  # the first past it raises its own message
        optics._bound(map(_picker(modes), state(int(np.argmax(past)))._amp), d)
    sizes = sizes.astype(np.int64).tolist()
    optics._within_budget(sum(sizes), f"the evolutions of {count} states")

    def evaluated(run):  # a pass gives a record per state, or None
        return _pass_groups(run, terms, np.ascontiguousarray(u.matrix), modes) or [one(state(i)) for i in run]

    lo, bound = 0, 0
    for i, (size, single) in enumerate(zip(sizes, (lengths == 0).tolist())):
        if lo < i and (single or bound + size > _PASS_TERMS):
            yield from evaluated(range(lo, i))
            lo, bound = i, 0
        if single:
            yield one(state(i))
            lo = i + 1
        bound += size  # 0 for a state without terms
    if lo < count:
        yield from evaluated(range(lo, count))


def _pass_groups(run, terms, mat, modes):
    """The records of one pass of ``_evolved_groups``, or None if a state's
    norm is zero or overflows or a filled column of ``mat`` holds an exact
    zero: ``run`` is the range of the states of ``terms`` (a ``_Terms``) it
    evaluates. The pass's plan (``_pass_plan``), which the amplitudes and the
    unitary's values leave alone, is held in the kernels' store
    (``kernels.stored``, from its second request on) under the stacked
    occupations and the evolved modes. Each pass evaluates it: the products
    and their merge (``optics._evolved``), the prune, the group weights and
    ``p``, kept as float64 arrays. It sorts nothing and decodes no count
    pattern."""
    _, occ, re, im, offsets, _ = terms
    lo, hi = offsets[run.start], offsets[run.stop]
    occ = occ[lo:hi]
    if not optics._zero_free(mat, occ[:, modes]):
        return None
    index = np.repeat(np.arange(len(run)), np.diff(offsets[run.start:run.stop + 1]))
    stacked = np.column_stack([occ, index])
    small = stacked.astype(np.min_scalar_type(int(stacked.max())))
    key = (small.tobytes(), small.shape, small.dtype.char, tuple(modes))
    plan = kernels.stored(key, lambda: _pass_plan(occ, index, len(run), modes))
    evolution, order, group, counts, firsts = plan
    keys, layout = evolution[0], evolution[3]
    re, im = optics._evolved(evolution, re[lo:hi], im[lo:hi], mat)
    # the validated constructor: exact zeros dropped, pruned at DEFAULT_TOL
    # times the norm (its 0j + amp changes nothing: sums from 0.0 hold no
    # -0.0); a zero adds 0.0 to its norm and never passes the cutoff
    lone = len(run) == 1  # one state: its norm, cutoff and kept total broadcast as scalars
    owner = np.zeros(len(keys), np.intp) if lone else layout.states(keys)
    size = np.hypot(re, im)
    square = np.float_power(size, 2.0)
    norm_sq = np.bincount(owner, square, len(run))
    cutoff = fock.DEFAULT_TOL * np.sqrt(norm_sq)
    keep = size > (cutoff if lone else cutoff[owner])
    # _groups: total = norm() ** 2 of the kept terms; a pruned one adds +0.0, which changes no sum
    total = np.float_power(np.sqrt(np.bincount(owner, np.where(keep, square, 0.0), len(run))), 2.0)
    if not (np.isfinite(norm_sq).all() and total.all()):
        return None
    # the kept rows in key order, and their groups: a group that keeps none weighs 0.0, impossible
    order = order.astype(np.intp)
    sorted_keep = keep.take(order)
    rows, group = order.compress(sorted_keep), group.compress(sorted_keep)
    post = occ.shape[1] - len(modes)  # the states of a pass share their mode count
    return _block_records(post, modes, counts, group, square.take(rows),
                          (keys.take(rows), re.take(rows), im.take(rows), layout),
                          total if lone else np.repeat(total, np.diff(firsts)), firsts)


def _pass_plan(occ, states, count, modes):
    """The plan of a pass over the stacked occupations ``occ`` of ``count``
    states, ``states`` the state of each row: ``(evolution, order, group,
    counts, firsts)``, the evolution's keys, offsets, parts and layout
    (``optics._evolution_plan``), the permutation that sorts the keys
    (int32), the group of each sorted key (int32), each group's count
    pattern and where each state's groups start, then their end. A group is
    the keys of one head (``optics._Keys``), one state and count pattern; a
    state's groups are one run. Read-only."""
    evolution = optics._evolution_plan(occ, modes, states)
    keys, layout = evolution[0], evolution[3]
    order = np.argsort(keys)
    ranked = keys[order]
    heads = layout.heads(ranked)
    opens = np.concatenate(([True], heads[1:] != heads[:-1]))
    counts = layout.counts(heads[opens])
    firsts = np.searchsorted(layout.states(ranked[opens]), np.arange(count + 1))
    evolution = (*evolution[:3], layout.bare())  # its pattern table, repeated in counts, dropped
    plan = (evolution, order.astype(np.int32), (np.cumsum(opens) - 1).astype(np.int32), counts,
            firsts)
    for array in (*evolution[:2], *layout[:2], *plan[1:], *(a for part in evolution[2] for a in part)):
        array.setflags(write=False)
    return plan


class _Block(tuple):
    """``(keys, re, im, layout, starts, stops)``: a pass's sorted keys and
    amplitudes, how they read (``optics._Keys``), and where each group's
    rows start and stop. Called with a group's index, it decodes those rows
    into the ``{kept occupation: amplitude}`` dict of ``_groups``."""

    __slots__ = ()

    def __call__(self, group):
        keys, re, im, layout, starts, stops = self
        rows = slice(starts[group], stops[group])
        rests = layout.rests(keys[rows]).tolist()
        return dict(zip(map(tuple, rests), map(complex, re[rows].tolist(), im[rows].tolist())))

    def terms(self, groups, modes):
        """``_Groups.terms`` of these groups."""
        keys, re, im, layout, starts, stops = self
        first = starts[groups]
        lengths = stops[groups] - first
        rows = np.repeat(first - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        return layout.rests(keys[rows]), re[rows], im[rows], lengths


def postselect(state: FockState, modes, counts) -> ConditionalOutcome:
    """Project onto an exact count pattern: its branch of ``measure_modes``.

    Probability 0 (is_impossible), for a pattern it does not list, is a
    legitimate signal, not an error.
    """
    modes = _check_modes(state.modes, modes)
    given = tuple(counts)
    if (counts := tuple(map(int, given))) != given or any(c < 0 for c in counts):
        raise ValueError(f"counts {given} are not nonnegative integers")
    if len(counts) != len(modes):
        raise ValueError("counts and modes differ in length")
    records = _groups(state, modes)
    if (pattern := list(counts)) in (listed := records.counts.tolist()):
        return records[listed.index(pattern)]
    return ConditionalOutcome(tuple(zip(modes, counts)), 0.0, None)


def _sample_detection(state: FockState, u, modes, rng):
    """One Counter detection of every mode of ``modes`` after ``u`` acts on them.

    Draws the branch that ``measure_modes(apply_unitary(state, u, modes),
    modes).drawn(rng)`` would draw, without evolving ``state``, as one-row
    ``_Records``. The unitary leaves the other modes alone, so the input
    splits into incoherent sectors, one per (kept occupation, photons in
    ``modes``), each weighted by its squared norm. A sector is drawn, then
    a count pattern of it: by boson sampling when it is one Fock term, else
    by one draw (``_Records.drawn``) over ``measure_modes`` after
    ``apply_unitary`` of that sector. The branch is then built from the
    transition amplitudes of every term with the pattern's photon number,
    one permanent per distinct sub-occupation, pruned as ``apply_unitary``
    prunes. A pattern outside that support is drawn again.
    """
    modes = _check_modes(state.modes, modes)
    measured, kept = _split(state, modes)
    total = _weight(state)
    sectors: dict = {}
    for occ, amp in state.terms():
        sub = measured(occ)
        sectors.setdefault((kept(occ), sum(sub)), {})[sub] = amp
    drawn = list(sectors.values())
    pick = _drawer([fock._squared_norm(terms.values()) / total for terms in drawn])
    cutoff = fock.DEFAULT_TOL * math.sqrt(total)
    while True:
        terms = drawn[pick(rng.random())]
        if len(terms) == 1:
            counts = _boson_sample(u.matrix, next(iter(terms)), rng)
        else:
            evolved = optics.apply_unitary(FockState(len(modes), terms), u)
            counts = tuple(measure_modes(evolved, range(len(modes))).drawn(rng).counts[0].tolist())
        photons = sum(counts)
        amplitudes: dict = {}
        group: dict = {}
        for (rest, k), sector in sectors.items():
            if k != photons:
                continue
            for sub, amp in sector.items():
                t = amplitudes.get(sub)
                if t is None:
                    t = amplitudes[sub] = optics.transition_amplitude(u, sub, counts)
                group[rest] = group.get(rest, 0j) + amp * t
        group = {rest: a for rest, a in group.items() if abs(a) > cutoff}
        weight = fock._squared_norm(group.values())
        p = weight / total
        if p >= IMPOSSIBLE:
            return _dict_records(state.modes - len(modes), modes, [counts], [p], [weight], [group])


def _draw_index(weights, rng) -> int:
    """Index drawn with probability proportional to the nonnegative ``weights``."""
    support = np.flatnonzero(weights)
    picked = weights[support]
    return int(support[_drawer(picked / picked.sum())(rng.random())])


def _boson_sample(mat, occ, rng):
    """Count pattern of U|occ>, drawn with its probability |<pattern|U|occ>|^2.

    Algorithm B of Clifford & Clifford, "The classical complexity of boson
    sampling" (arXiv:1706.01260): permute the photons' columns at random,
    then draw the output mode of photon k from the Laplace expansion of the
    k x k permanents over the column-deleted minors of the k - 1 rows
    already drawn. O(k 2^k) work per step for k photons.
    """
    cols = [l for l, k in enumerate(occ) for _ in range(k)]
    a = mat[:, [cols[i] for i in rng.permutation(len(cols))]]
    rows = []
    for k in range(1, len(cols) + 1):
        minors = kernels.permanent_minors(a[rows, :k])
        rows.append(_draw_index(np.abs(a[:, :k] @ minors) ** 2, rng))
    counts = [0] * len(occ)
    for r in rows:
        counts[r] += 1
    return tuple(counts)


def fanout_count(state: FockState, mode: int, n: int):
    """Approximate particle counting by 1/sqrt(N) fan-out onto N buckets.

    Returns (outcomes, misdetect_probability): outcomes are the records
    of ``measure_modes(state, [mode], FanoutCounter(n))``, by number of
    detectors that fired; misdetect_probability is the probability that
    some fan-out mode held two or more photons, read from the same
    fanned-out state, which for a k-photon input equals 1 - (N)_k / N^k
    and is bounded by k(k-1)/2N.
    """
    n = FanoutCounter(n).n
    work, detectors = _fanned(state, _check_modes(state.modes, [mode]), n)
    occ = optics._as_rows(work._amp, work.modes)
    order = np.lexsort(optics._packed(occ)[::-1])  # terms() order
    order = order[(occ[order][:, detectors] >= 2).any(axis=1)]  # the bunched terms
    amp = np.fromiter(work._amp.values(), complex, len(occ))[order]
    square = np.float_power(np.hypot(amp.real, amp.imag), 2.0)  # abs(a) ** 2, added left to right
    bunched = np.bincount(np.zeros(len(order), np.intp), square, 1).item()
    return _groups(work, detectors, n), bunched / _weight(work)


def sample_outcome(state: FockState, modes, model: DetectorModel, seed) -> ConditionalOutcome:
    """Draw one branch with its exact probability; deterministic per seed."""
    return measure_modes(state, modes, model).drawn(np.random.default_rng(seed))[0]


def _drawer(weights, ends=None):
    """The draw over ``weights``: maps a uniform ``r`` to the index it selects.

    The index is that of the first branch whose cumulative weight, summed
    left to right, exceeds r; a draw at or above the last sum (rounding
    leaves the sum short of 1) selects the last branch. The sums are taken
    once, so a trial that draws many times reuses them; ``r`` may be an
    array (one index each). Every sampled path draws here. With ``ends``,
    the ascending last indices of runs of branches that cover the list,
    the draw selects a run: only the same sums at those indices are kept,
    so ``r`` selects the run that holds the branch it would select.
    """
    cum = list(accumulate(weights))
    if ends is not None:
        cum = [cum[i] for i in ends]
    last = len(cum) - 1

    def draw(r):
        if isinstance(r, np.ndarray):
            return np.minimum(np.searchsorted(cum, r, side="right"), last)
        return min(bisect_right(cum, r), last)

    return draw
