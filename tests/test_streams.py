"""Golden sample streams: seeded draws must pick the same branches.

Every sampled path (Monte-Carlo trials, sampled protocol trajectories and
the seeded CLI report) is compared against a record kept in
``tests/data``. A change that alters which branch a seed selects fails
here; if the change is deliberate, regenerate the record with

    PYTHONPATH=src python tests/test_streams.py --write

and say in the change log that the sample streams changed.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from fockworks import costs, fock, protocols
from fockworks.cli import main
from fockworks.protocols import BosonicQubit

DATA = Path(__file__).resolve().parent / "data"
STREAMS = DATA / "sample_streams.json"
CLI_ARGS = ["run", "csign", "--n", "2", "--trials", "2000", "--seed", "1"]
CLI_STDOUT = DATA / "run_csign_n2_trials2000_seed1.json"

MC_NAMES = ("ns1", "csign_ns", "teleport")
MC_SEEDS = (0, 1, 2)
MC_TRIALS = 2000
SAMPLE_SEEDS = range(20)


def _plus_plus():
    plus = protocols.encode_qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
    return fock.tensor(plus, plus)


def _ns1_input():
    amp = 1 / math.sqrt(3)
    return fock.FockState(1, {(0,): amp, (1,): amp, (2,): amp})


SAMPLED = {
    "apply_ns1": lambda rng: protocols.apply_ns1(_ns1_input(), 0, rng=rng),
    "teleport_bm1": lambda rng: protocols.teleport_bm1(costs.encode_single_rail(0.6, 0.8), 0, rng=rng),
    "teleport_tn": lambda rng: protocols.teleport_tn(costs.encode_single_rail(0.6, 0.8), 0, 3, rng=rng),
    "csign_teleported": lambda rng: protocols.csign_teleported(
        _plus_plus(), BosonicQubit(0, 1), BosonicQubit(2, 3), 2, rng=rng),
    "combine_tp_to_tprime": lambda rng: protocols.combine_tp_to_tprime(2, rng=rng),
    "prepare_p_prime": lambda rng: protocols.prepare_p_prime(2, rng=rng),
    "teleport_with_e": lambda rng: protocols.teleport_with_e(0.6, 0.8, n=2, rng=rng),
    "distribute_entanglement": lambda rng: protocols.distribute_entanglement(2, rng=rng),
}

_PATTERN_KEYS = ("pattern", "pattern1", "pattern2", "parity", "sign", "accepted",
                 "stage", "projected", "k1", "k2")


def _plain(obj):
    """JSON-shaped copy: tuples become lists, floats are rounded."""
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


def fingerprint(res):
    """The success flag and the detected pattern of one sampled trajectory."""
    details = res.details
    branch = details.get("branch") or {}
    return _plain({
        "succeeded": res.succeeded,
        "outcome": res.trace[-1].get("outcome") if res.trace else None,
        "details": {k: details[k] for k in _PATTERN_KEYS if k in details},
        "branch": {k: branch[k] for k in _PATTERN_KEYS if k in branch},
        "failure": res.failure_info,
        "corrections": res.corrections,
    })


def monte_carlo_counts():
    out = {}
    for name in MC_NAMES:
        trial = costs.make_trial(name, n=3)
        out[name] = [costs.monte_carlo(trial, MC_TRIALS, seed).successes for seed in MC_SEEDS]
    return out


def sampled_fingerprints():
    return {name: [fingerprint(run(np.random.default_rng(seed))) for seed in SAMPLE_SEEDS]
            for name, run in SAMPLED.items()}


def cli_stdout(capsys=None):
    if capsys is None:
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert main(CLI_ARGS) == 0
        return buf.getvalue()
    assert main(CLI_ARGS) == 0
    return capsys.readouterr().out


def _golden():
    return json.loads(STREAMS.read_text())


def test_monte_carlo_counts_match_record():
    assert monte_carlo_counts() == _golden()["monte_carlo"]


def test_sampled_trajectories_match_record():
    record = _golden()["sampled"]
    current = sampled_fingerprints()
    assert set(current) == set(record)
    for name in record:
        for seed, (got, want) in enumerate(zip(current[name], record[name])):
            assert got == want, f"{name} seed {seed}"


def test_seeded_cli_stdout_matches_record(capsys):
    assert cli_stdout(capsys) == CLI_STDOUT.read_text()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    DATA.mkdir(exist_ok=True)
    record = {"monte_carlo": monte_carlo_counts(), "sampled": sampled_fingerprints()}
    STREAMS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    CLI_STDOUT.write_text(cli_stdout())
