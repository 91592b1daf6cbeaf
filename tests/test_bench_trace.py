"""The benchmark's traced passes, checked without a clock: the ops of each
workload reach every span its pass requires."""

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


def _traced_cycle(workload, spans):
    """One cycle of ``workload``'s ops, traced as perfbench's traced pass
    traces them: after its warm-up op and one untraced cycle, with the
    checks run once the tracer is removed. Returns the tracer."""
    cycle = len(workload.cycle)
    warm = workload.warmup()
    warm.check(warm.run())
    for i in range(cycle):
        op = workload.op(i)
        op.check(op.run())
    ops = [workload.op(i) for i in range(cycle, 2 * cycle)]
    with spans.Tracer() as tracer:
        outs = []
        for op in ops:
            tracer.sampled = op.sampled
            outs.append(op.run())
    for op, out in zip(ops, outs):
        op.check(out)
    return tracer


def test_evolution_and_sampling_reach_every_span_the_traced_pass_requires():
    """One full-size op of perfbench's ``evolution`` (a 40-term, 5-photon,
    8-mode ``apply_unitary`` and its 160 permanent oracle calls) and one
    full-size cycle of ``sampling`` (a Monte-Carlo batch of each protocol and
    two sampled ``teleport_tn`` n=6 trajectories) call every span their
    traced passes must record (``Evolution.must_hit``,
    ``Sampling.must_hit``): a kernel or oracle change that would make either
    pass exit 1 fails here first."""
    spans, workloads = _bench_module("spans"), _bench_module("workloads")
    for workload in (workloads.Evolution(1, 0, "full"), workloads.Sampling(1, 0, "full")):
        tracer = _traced_cycle(workload, spans)
        assert {"optics.apply_unitary", "optics.expand"} <= set(workload.must_hit)
        assert [name for name in workload.must_hit if not tracer.count[name]] == [], workload.name
