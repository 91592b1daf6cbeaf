"""fockworks benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload exact_branches --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the in-tree package under src/ is
imported. With ``--trace 0`` the run times ops for ``--seconds`` and
prints the end-to-end metrics, scaled to a reference speed of the host
(see ``speed.py``). With ``--trace 1`` it runs a fixed number of ops
untraced and then the same number traced, and prints the per-layer
metrics. The last line of stdout is the JSON result; the lines
before it name every metric with its unit, the environment and the
deterministic work counts. ``--out FILE`` appends the whole run record
to FILE as one JSON line, for ``perfbench/compare.py``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_NOMINAL_S, Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2  # fresh set-ups timed besides the run's own
IMPORT_PACKAGES = ("fockworks", "numpy", "scipy")

# per-workload rates printed as extras, keyed by the work count they divide
RATE_NAMES = {"branches": "branches_per_s", "trials": "trials_per_s",
              "trajectories": "trajectories_per_s", "terms": "terms_per_s"}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def set_up(args):
    """Import the in-tree package, build the workload's inputs and run its
    warm-up op: everything a run does before timing starts. Returns
    (fockworks, workload), or exits with an error message."""
    if not (SRC / "fockworks" / "__init__.py").is_file():
        sys.exit(f"error: no fockworks sources under {SRC}")
    # pin BLAS/OpenMP to one thread before numpy loads, and import the
    # in-tree package (what PYTHONPATH=src gives)
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import fockworks

    if Path(fockworks.__file__).resolve().parent != SRC / "fockworks":
        sys.exit(f"error: imported fockworks from {fockworks.__file__}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.size)
    warm = workload.warmup()
    _, _, error = run_op(warm)
    if error is not None:
        print(f"error: warm-up op {warm.kind} failed: {error}", file=sys.stderr)
        sys.exit(1)
    return fockworks, workload


def timed_set_up(args):
    """``set_up`` and its cost in reference units."""
    with Speedometer() as speed:
        start = time.perf_counter()
        fockworks, workload = set_up(args)
        end = time.perf_counter()
    return fockworks, workload, speed.cost(start, end)


def probe_set_up(args):
    """``timed_set_up``'s cost in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=150)
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(args, own):
    """Median set-up time at reference speed over the run's own set-up
    (``own``, in reference units) and SETUP_PROBES fresh ones."""
    costs = [own] + [probe_set_up(args) for _ in range(SETUP_PROBES)]
    return statistics.median(costs) * REF_NOMINAL_S


def import_breakdown():
    """Seconds spent importing each of IMPORT_PACKAGES, from -X importtime.

    A package's time is the cumulative time of its outermost imports: the
    entries named after it that no entry of the same package encloses.
    """
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fockworks"],
                         env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    rows = []
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors = []
    for depth, cumulative, name in reversed(rows):  # parents precede children
        del ancestors[depth:]
        root = name.split(".")[0]
        if root in totals and not any(a.split(".")[0] == root for a in ancestors):
            totals[root] += cumulative * 1e-6
        ancestors.append(name)
    return {f"import.{pkg}_s": t for pkg, t in totals.items()}


def environment(fockworks):
    import numpy

    scipy = sys.modules.get("scipy")  # loaded only if fockworks imports it
    return {
        "backend": fockworks.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def unit_of(name):
    """The unit of a metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or "_s[" in name:
        return "s"
    if name.endswith("_ratio") or name == "error_rate":
        return "ratio"
    if name.endswith("per_sample"):
        return "branches/sample"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Outcome:
    """Latencies, work counts and failures of the ops a run issued."""

    def __init__(self):
        self.latency = {}  # kind -> [seconds]
        self.cost = {}  # kind -> [reference units], see speed.py
        self.work = {}  # kind -> {count name: [per-op values]}
        self.failures = {}  # op index -> message
        self.done = []
        self.samples = 0  # sampled trajectories drawn

    def record(self, i, op, seconds, work, error):
        self.done.append(i)
        self.samples += op.sampled
        self.latency.setdefault(op.kind, []).append(seconds)
        if error is not None:
            self.failures[i] = error
            return
        for key, value in work.items():
            self.work.setdefault(op.kind, {}).setdefault(key, []).append(value)

    def busy(self, kind=None):
        kinds = [kind] if kind else self.latency
        return sum(sum(self.latency[k]) for k in kinds)

    def total(self, unit):
        return sum(sum(counts.get(unit, ())) for counts in self.work.values())

    def work_counts(self):
        """Per kind and count: the distinct per-op values seen."""
        return {kind: {key: sorted(set(values)) for key, values in counts.items()}
                for kind, counts in self.work.items()}


def run_op(op):
    """Run one op; returns (seconds, output, error message or None)."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises counts as failed
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


def check_op(op, out, error):
    """Work counts of a finished op, or (None, message) if it failed."""
    if error is not None:
        return None, error
    try:
        return op.check(out), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def measure(workload, seconds):
    """Closed loop: issue ops until ``seconds`` have passed and every op
    kind has run at least once. Each op is checked, untimed, before the
    next one is issued. A Speedometer samples the host's speed meanwhile;
    an op's latency excludes the samples taken inside it."""
    outcome = Outcome()
    spans = []  # (kind, start, end) of each op
    with Speedometer() as speed:
        start = time.perf_counter()
        i = 0
        while i < len(workload.cycle) or time.perf_counter() - start < seconds:
            op = workload.op(i)
            begin = time.perf_counter()
            _, out, error = run_op(op)
            end = time.perf_counter()
            spans.append((op.kind, begin, end))
            work, error = check_op(op, out, error)
            outcome.record(i, op, speed.seconds_between(begin, end), work, error)
            i += 1
    outcome.ref_s = statistics.median(speed.seconds)
    for kind, begin, end in spans:
        outcome.cost.setdefault(kind, []).append(speed.cost(begin, end))
    outcome.failures.update(workload.finish(outcome.done))
    return outcome


def end_to_end(workload, outcome, setup):
    """The end-to-end metrics and the named per-workload extras.

    The gated rates come from the median reference-scaled time of each op
    kind, weighted by the op mix, so neither a few disturbed ops nor the
    kind the run happens to end on moves them."""
    ops = len(outcome.done)
    mix = {kind: workload.cycle.count(kind) / len(workload.cycle) for kind in workload.cycle}
    op_ref_s = sum(w * statistics.median(outcome.cost[k]) for k, w in mix.items()) * REF_NOMINAL_S
    work_per_op = sum(w * statistics.mean(outcome.work.get(k, {}).get(workload.unit, [0]))
                      for k, w in mix.items())
    metrics = {
        "setup_s": setup,
        "ops_per_s": 1 / op_ref_s,
        "work_per_s": work_per_op / op_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = {
        "ops": ops,
        "wall_ops_per_s": ops / outcome.busy(),
        "wall_work_per_s": outcome.total(workload.unit) / outcome.busy(),
        "ref_s": outcome.ref_s,
        "error_rate": len(outcome.failures) / ops,
        # per-kind medians weighted by the op mix: a plain median of a
        # mix of slow and fast kinds jumps between them from run to run
        "op_p50_s": sum(w * statistics.median(outcome.latency[k]) for k, w in mix.items()),
    }
    latencies = [t for values in outcome.latency.values() for t in values]
    if ops >= 100:
        extras["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    for kind, values in outcome.latency.items():
        extras[f"p50_s[{kind}]"] = statistics.median(values)
    for unit, name in RATE_NAMES.items():
        kinds = [k for k, counts in outcome.work.items() if unit in counts]
        if kinds:
            extras[name] = outcome.total(unit) / sum(outcome.busy(k) for k in kinds)
    return metrics, extras


def traced(workload):
    """Untraced then traced passes over two equal, fixed blocks of ops."""
    from spans import Tracer, layer_metrics

    n = workload.traced_ops
    plain = Outcome()
    for i in range(n):
        op = workload.op(i)
        elapsed, out, error = run_op(op)
        plain.record(i, op, elapsed, *check_op(op, out, error))
    # the ops' checks call library functions too, so they run once the
    # tracer is removed
    tracer = Tracer()
    ops = [workload.op(i) for i in range(n, 2 * n)]
    runs = []
    with tracer:
        start = time.perf_counter()
        for op in ops:
            tracer.sampled = op.sampled
            runs.append(run_op(op))
        traced_wall = time.perf_counter() - start
    spans = Outcome()
    for i, op, (elapsed, out, error) in zip(range(n, 2 * n), ops, runs):
        spans.record(i, op, elapsed, *check_op(op, out, error))
    missing = [name for name in workload.must_hit if tracer.count[name] == 0]
    if missing:
        raise SystemExit(f"traced pass recorded no calls of {', '.join(missing)}")
    metrics = layer_metrics(tracer, spans.samples)
    imports = [import_breakdown() for _ in range(3)]
    metrics.update({key: min(d[key] for d in imports) for key in imports[0]})
    metrics["trace.overhead_ratio"] = traced_wall / plain.busy()
    plain.failures.update(spans.failures)
    plain.done += spans.done
    plain.failures.update(workload.finish(plain.done))
    counts = {name: tracer.count[name] for name in sorted(tracer.count)}
    counts.update(tracer.counters)
    counts["ops"] = n
    return metrics, plain, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes (smoke test)")
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    fockworks, workload, own = timed_set_up(args)
    if args.probe_setup:  # one fresh set-up, timed for setup_seconds
        print(own)
        return 0

    if args.trace:
        metrics, outcome, counts = traced(workload)
        extras = {"spans_and_counters": counts}
    else:
        setup = setup_seconds(args, own)
        outcome = measure(workload, args.seconds)
        metrics, extras = end_to_end(workload, outcome, setup)
    attempted = len(outcome.done)
    failed = len(outcome.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "env": environment(fockworks), "work": outcome.work_counts(), "extras": extras,
        "failures": {str(i): msg for i, msg in sorted(outcome.failures.items())},
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    record["result"] = result
    for key in ("env", "work", "failures"):
        print(f"# {key} {json.dumps(record[key], sort_keys=True)}")
    if args.trace:
        print(f"# spans_and_counters {json.dumps(counts, sort_keys=True)}")
    else:
        for name, value in extras.items():
            print(f"# extra {name} = {value} {unit_of(name)}")
    for name, value in metrics.items():
        print(f"# metric {name} = {value} {unit_of(name)}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
