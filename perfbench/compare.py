"""Summarise and compare benchmark run records written by ``run.py --out``.

    python3 perfbench/compare.py RUNS.jsonl              # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl    # NEW against BASE

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median), and with two sets the
change of the medians, worse-is-positive, against the metric's bound in
BENCHMARK.json. Deterministic work counts must repeat exactly across the
runs of a workload. Records whose kernel backend differs are never
compared: the script exits with status 2.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def deterministic(record):
    """The counts that must repeat exactly from run to run."""
    counts = {kind: values for kind, values in record["work"].items()}
    for name, metric in record["result"]["metrics"].items():
        if metric["unit"] == "count":
            counts[name] = metric["value"]
    return json.dumps(counts, sort_keys=True)


def summarise(records):
    """{(workload, trace): {metric: [values]}} and a list of problems."""
    groups, problems, seen = {}, [], {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        if not rec["result"]["correct"]:
            problems.append(f"{key}: seed {rec['seed']} failed {rec['result']['failed']} ops")
        counts = deterministic(rec)
        if seen.setdefault(key, counts) != counts:
            problems.append(f"{key}: work counts of seed {rec['seed']} differ from the first run")
        for name, metric in rec["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return groups, problems


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    backends = {rec["env"]["backend"] for records in sets for rec in records}
    if len(backends) != 1:
        print(f"refusing to compare runs of different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    summaries = [summarise(records) for records in sets]
    status = 0
    for key in sorted(summaries[-1][0]):
        print(f"== {key[0]} (trace {key[1]})")
        for name, values in summaries[-1][0][key].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:40} n={len(values):2} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}"
            bound = METRICS.get(name, {}).get("bound")
            if bound is not None:
                line += f" bound={bound}"
                if name != "setup_s" and spread > bound / 3:
                    line += "  SPREAD ABOVE BOUND/3"
            if len(summaries) == 2 and name in summaries[0][0].get(key, {}):
                base = statistics.median(summaries[0][0][key][name])
                sign = 1 if METRICS.get(name, {}).get("better") == "lower" else -1
                worse = sign * (med - base) / base if base else 0.0
                line += f" base={base:.6g} worse_by={worse:+.3f}"
                if bound is not None and worse > bound:
                    line += "  REGRESSION"
                    status = 1
            print(line)
    for _, problems in summaries:
        for problem in problems:
            print(f"problem: {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
