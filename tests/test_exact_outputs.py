"""Golden exact outputs: every branch, bit for bit.

For each case the record keeps, per branch, ``float.hex`` of the branch
probability and of the real and imaginary part of every amplitude of its
state, in ``terms()`` order. The record holds the branch count and a
SHA-256 digest of those lines, so a change in any last bit of any
probability or amplitude fails here. For the large branch lists a second
record, ``<case> fields``, digests every other field of every branch: its
keys in order, a float by ``float.hex`` and any other value by ``repr``
(which names a numpy scalar), so a correction angle, a count or a type
cannot change unnoticed either. Inputs are built without LAPACK
(the "random" unitary is a Fourier matrix between seeded diagonal
phases), so the record does not depend on the linear-algebra library.

Record a new case with

    PYTHONPATH=src python tests/test_exact_outputs.py --write

which writes only the cases the record lacks. If a recorded case would
change, it writes nothing, names the case and exits 1: a record is never
rewritten silently. To re-record a case after a deliberate change of
arithmetic, delete its key from the record first.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fockworks import costs, fock, measure, optics, protocols
from fockworks.protocols import BosonicQubit

RECORD = Path(__file__).resolve().parent / "data" / "exact_outputs.json"


def _state_lines(state):
    if state is None:
        return ["none"]
    return [f"{list(occ)} {amp.real.hex()} {amp.imag.hex()}" for occ, amp in state.terms()]


def _digest(branches):
    """(count, sha256) over (p, state) pairs."""
    h = hashlib.sha256()
    for p, state in branches:
        h.update(float(p).hex().encode())
        for line in _state_lines(state):
            h.update(b"\n" + line.encode())
        h.update(b"\n--\n")
    return [len(branches), h.hexdigest()]


def _field_digest(branches):
    """(count, sha256) over every branch's keys, in order, and its values
    other than ``p`` and ``state``: a float by ``float.hex``, else by ``repr``."""
    h = hashlib.sha256()
    for branch in branches:
        for key, value in branch.items():
            if key in ("p", "state"):
                line = key
            else:
                line = f"{key} {value.hex() if type(value) is float else repr(value)}"
            h.update(line.encode() + b"\n")
        h.update(b"--\n")
    return [len(branches), h.hexdigest()]


def _random_state(seed, photons=5, modes=8, terms=12):
    rng = np.random.default_rng(seed)
    amps = {}
    while len(amps) < terms:
        occ = tuple(int(k) for k in np.bincount(rng.integers(0, modes, size=photons), minlength=modes))
        amps[occ] = complex(rng.normal(), rng.normal())
    return fock.FockState(modes, amps).normalized()


def _random_unitary(seed, modes=8):
    """D_a F D_b with seeded diagonal phases; elementwise, no LAPACK."""
    rng = np.random.default_rng(seed)
    a = np.exp(1j * rng.uniform(0, 2 * math.pi, modes))
    b = np.exp(1j * rng.uniform(0, 2 * math.pi, modes))
    return optics.ModeUnitary(a[:, None] * optics.fourier_matrix(modes - 1).matrix * b[None, :])


def _evolved():
    return optics.apply_unitary(_random_state(5), _random_unitary(6))


def _listed(res):
    """The result's (success probability, output), then every branch's (p, state)."""
    return [(res.success_probability, res.output_state)] + [
        (b["p"], b["state"]) for b in res.details["branches"]]


def _teleport(n):
    return protocols.teleport_tn(costs.encode_single_rail(0.6, 0.8j), 0, n)


def _csign(n):
    q = fock.tensor(protocols.encode_qubit(0.6, 0.8), protocols.encode_qubit(0.28j, 0.96))
    return protocols.csign_teleported(q, BosonicQubit(0, 1), BosonicQubit(2, 3), n)


def _parity(n):
    pair = fock.tensor(costs.encode_single_rail(0.6, 0.8j), costs.encode_single_rail(0.28j, 0.96))
    return protocols.parity_measure(pair, 0, 1, n)


def _heralded(res):
    return [(res.success_probability, res.output_state)]


def _measured(model, modes):
    return [(br.probability, br.post_state) for br in measure.measure_modes(_evolved(), modes, model)]


def _postselect():
    br = measure.postselect(_evolved(), [2, 4], (1, 0))
    return [(br.probability, br.post_state)]


CASES = {
    **{f"teleport_tn_n{n}": (lambda n=n: _listed(_teleport(n))) for n in range(1, 8)},
    **{f"csign_teleported_n{n}": (lambda n=n: _listed(_csign(n))) for n in range(1, 5)},
    **{f"parity_measure_n{n}": (lambda n=n: _listed(_parity(n))) for n in (2, 3)},
    "teleport_with_e_n3": lambda: _listed(protocols.teleport_with_e(0.6, 0.8j, n=3)),
    "distribute_entanglement_n3": lambda: _listed(protocols.distribute_entanglement(3)),
    "measure_bucket": lambda: _measured(measure.Bucket(), [0, 3, 5]),
    "measure_counter": lambda: _measured(measure.Counter(), [1, 6]),
    "measure_fanout4": lambda: _measured(measure.FanoutCounter(4), [1, 6]),
    "postselect": _postselect,
    "apply_unitary_5ph_8modes": lambda: [(1.0, _evolved())],
    "csign_via_ns": lambda: _heralded(protocols.csign_via_ns(
        fock.tensor(protocols.encode_qubit(0.6, 0.8), protocols.encode_qubit(0.28j, 0.96)),
        BosonicQubit(0, 1), BosonicQubit(2, 3))),
    "prepare_b4_prime": lambda: _heralded(protocols.prepare_b4_prime()),
    "apply_ns1": lambda: _heralded(protocols.apply_ns1(
        fock.FockState(1, {(0,): 0.6, (1,): 0.48j, (2,): 0.64}), 0)),
}


#: small branch lists, each recorded branch by branch and field by field
SMALL = {
    "apply_ns1 branches": lambda: protocols.apply_ns1(
        fock.FockState(1, {(0,): 0.6, (1,): 0.48j, (2,): 0.64}), 0),
    "csign_via_ns branches": lambda: protocols.csign_via_ns(
        fock.tensor(protocols.encode_qubit(0.6, 0.8), protocols.encode_qubit(0.28j, 0.96)),
        BosonicQubit(0, 1), BosonicQubit(2, 3)),
    "teleport_bm1": lambda: protocols.teleport_bm1(costs.encode_single_rail(0.6, 0.8j), 0),
    "combine_tp_to_tprime_n2": lambda: protocols.combine_tp_to_tprime(2),
    "prepare_p_prime_n2": lambda: protocols.prepare_p_prime(2),
    "teleport_with_e_n3_ideal": lambda: protocols.teleport_with_e(0.6, 0.8j, n=3, ideal_parity=True),
    "distribute_entanglement_n3_ideal": lambda: protocols.distribute_entanglement(3, method="ideal"),
}
CASES |= {name: (lambda f=f: _listed(f())) for name, f in SMALL.items()}

#: the results whose branch fields are recorded too, as ``<name> fields``
FIELD_CASES = {
    **{f"teleport_tn_n{n}": (lambda n=n: _teleport(n)) for n in (3, 6)},
    **{f"csign_teleported_n{n}": (lambda n=n: _csign(n)) for n in (2, 4)},
    "parity_measure_n3": lambda: _parity(3),
    "teleport_with_e_n3": lambda: protocols.teleport_with_e(0.6, 0.8j, n=3),
    "distribute_entanglement_n3": lambda: protocols.distribute_entanglement(3),
    **SMALL,
}

#: every record: its name and how to compute its digest
DIGESTS = {
    **{name: (lambda f=f: _digest(f())) for name, f in CASES.items()},
    **{f"{name} fields": (lambda f=f: _field_digest(f().details["branches"]))
       for name, f in FIELD_CASES.items()},
}


# each case runs three times from empty expansion stores: its rows and
# the plans of its detection passes computed, stored on their second
# request, then read; the third run builds no plan, so the records pin the
# bits of every pass evaluated through a stored plan


def _thrice(digest, expected, pass_counts):
    taken = []
    for _ in range(3):
        assert digest() == expected
        taken.append(pass_counts())
    # the third run reads a stored plan for every pass the first ran
    assert taken[2] == (taken[0][0], 0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_outputs_match_record(name, empty_rows, pass_counts):
    record = json.loads(RECORD.read_text())
    _thrice(DIGESTS[name], record[name], pass_counts)


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_branch_fields_match_record(name, empty_rows, pass_counts):
    record = json.loads(RECORD.read_text())
    _thrice(DIGESTS[f"{name} fields"], record[f"{name} fields"], pass_counts)


@pytest.mark.parametrize("name", ["csign_teleported_n2", "teleport_tn_n7"])
def test_a_recorded_case_runs_a_pass(name, pass_counts):
    """The checks above pin passes: the teleported gates' second detections
    run one, and so does teleport_tn from n = 6 on."""
    CASES[name]()
    assert pass_counts()[0] >= 1


def _write():
    """Record every case the record lacks; exit 1, writing nothing, if a
    recorded case no longer matches."""
    record = json.loads(RECORD.read_text())
    changed = [name for name in sorted(record) if name in DIGESTS
               and DIGESTS[name]() != record[name]]
    if changed:
        sys.exit(f"recorded cases would change: {', '.join(changed)}; "
                 "delete a key from the record to re-record it")
    added = {name: digest() for name, digest in DIGESTS.items() if name not in record}
    RECORD.write_text(json.dumps(record | added, indent=1, sort_keys=True) + "\n")
    print("recorded:", ", ".join(sorted(added)) or "nothing new")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write()
