"""The benchmark's traced pass over exact branches, checked without a clock."""

import importlib.util
from pathlib import Path

from fockworks import protocols
from fockworks.costs import encode_single_rail
from fockworks.fock import tensor
from fockworks.protocols import BosonicQubit, encode_qubit

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_gates_reach_every_span_the_traced_pass_requires():
    """One exact ``teleport_tn`` n=8 and one exact ``csign_teleported``
    n=4, the op kinds of perfbench's ``exact_branches``, call every span
    its traced pass must record (``ExactBranches.must_hit``): the
    protocols, ``optics.apply_unitary``, the expansion kernel,
    ``measure.measure_modes``, ``FockState.__init__`` and
    ``fock.phase_on_mode``. A change that would make that pass exit 1
    fails here first. Counters and timing inside the package (ROADMAP
    item 2) are the change that may relax it, with the benchmark."""
    spans, workloads = _bench_module("spans"), _bench_module("workloads")
    with spans.Tracer() as tracer:
        protocols.teleport_tn(encode_single_rail(0.6, 0.8j), 0, 8)
        protocols.csign_teleported(tensor(encode_qubit(0.6, 0.8), encode_qubit(0.8j, 0.6)),
                                   BosonicQubit(0, 1), BosonicQubit(2, 3), 4)
    required = workloads.ExactBranches.must_hit
    assert {"optics.apply_unitary", "optics.expand", "measure.measure_modes", "fock.construct",
            "fock.phase_on_mode"} <= set(required)
    assert [name for name in required if not tracer.count[name]] == []
