"""Command-line frontend.

Structured JSON goes to stdout (canonical key order, so identical runs
are byte-identical); human-readable summaries go to stderr. Exit codes:
0 success, 1 verification failure, 2 usage or input error.

Config precedence: command-line flags > config file (FOCKWORKS_CONFIG or
--config) > built-in defaults. Sampling commands require an explicit
seed; there is no hidden entropy.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import costs, fock, measure, optics, protocols, source, verify

CONFIG_ENV = "FOCKWORKS_CONFIG"


@dataclass
class RunConfig:
    """Resolved invocation parameters; round-trips through JSON."""

    command: str
    protocol: str | None = None
    n: int = 1
    strategy: str = "ns"
    seed: int | None = None
    trials: int | None = None
    tol: float = 1e-10
    out: str | None = None
    input: str | None = None
    trace_out: str | None = None
    detector: str = "bucket"

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        return cls(**data)


def _load_config_defaults(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _emit(data: dict, out: str | None):
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(msg: str):
    print(msg, file=sys.stderr)


def _parse_amplitudes(text: str, count: int):
    parts = [complex(p.strip().replace(" ", "")) for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated amplitudes, got {len(parts)}")
    norm = math.sqrt(sum(abs(p) ** 2 for p in parts))
    if norm == 0:
        raise ValueError("zero input state")
    return [p / norm for p in parts]


# -- run ---------------------------------------------------------------------


def _analytic_report(cfg: RunConfig):
    """Returns (ProtocolResult, analytic summary dict, trial factory or None)."""
    name = cfg.protocol
    if name == "ns1":
        amps = _parse_amplitudes(cfg.input or "1,1,1", 3)
        state = fock.FockState(1, {(k,): amps[k] for k in range(3)})
        trial = costs.make_trial("ns1", seed_state=state)
        return trial.result, {"success_probability": trial.analytic}, trial
    if name == "csign":
        raw = (cfg.input or "1,0,0,1").split(",")
        if len(raw) != 4:
            raise ValueError("csign input needs 4 amplitudes: a0,a1,b0,b1")
        first = _parse_amplitudes(",".join(raw[:2]), 2)
        second = _parse_amplitudes(",".join(raw[2:]), 2)
        q = fock.tensor(protocols.encode_qubit(*first),
                        protocols.encode_qubit(*second))
        if cfg.strategy == "teleported":
            trial = costs.make_trial("csign_teleported", n=cfg.n, seed_state=q)
        else:
            trial = costs.make_trial("csign_ns", seed_state=q)
        return trial.result, {"success_probability": trial.analytic}, trial
    if name == "teleport":
        amps = _parse_amplitudes(cfg.input or "1,1", 2)
        state = costs.encode_single_rail(amps[0], amps[1])
        trial = costs.make_trial("teleport", n=cfg.n, seed_state=state)
        return trial.result, {
            "success_probability": trial.analytic,
            "failure_probability": trial.result.details["failure_probability"],
        }, trial
    if name == "b4prime":
        res = protocols.prepare_b4_prime()
        return res, {"success_probability": res.success_probability}, None
    if name == "tpn":
        res = protocols.prepare_tp_n(cfg.n, strategy=cfg.strategy)
        return res, {"success_probability": res.success_probability,
                     "csign_count": res.details["csign_count"]}, None
    if name == "tprime":
        res = protocols.combine_tp_to_tprime(cfg.n, strategy=cfg.strategy)
        return res, {"success_probability": res.success_probability}, None
    if name == "parity":
        amps = _parse_amplitudes(cfg.input or "1,1", 2)
        state = fock.FockState(2, {(0, 1): amps[0], (1, 0): amps[1]})
        res = protocols.parity_measure(state, 0, 1, max(cfg.n, 2))
        parities = sorted({b["parity"] for b in res.details["branches"] if b["ok"]})
        return res, {"success_probability": res.success_probability,
                     "parities": parities}, None
    if name == "distribute":
        res = protocols.distribute_entanglement(max(cfg.n, 2))
        return res, {"acceptance_probability": res.details["acceptance_probability"]}, None
    if name == "teleport-e":
        amps = _parse_amplitudes(cfg.input or "1,1", 2)
        res = protocols.teleport_with_e(amps[0], amps[1], n=max(cfg.n, 2))
        return res, {"success_probability": res.success_probability}, None
    if name == "source":
        r = float(cfg.input or "0.1")
        det = measure.Counter() if cfg.detector == "counter" else measure.Bucket()
        prob, state, fid = source.heralded_single_photon(source.SqueezeParam(r), det)
        res = protocols.ProtocolResult(True, prob, state)
        return res, {"herald_probability": prob, "fidelity": fid}, None
    raise ValueError(f"unknown protocol {cfg.protocol!r}")


def cmd_run(cfg: RunConfig) -> int:
    res, analytic, trial = _analytic_report(cfg)
    report = {
        "protocol": cfg.protocol,
        "params": {"n": cfg.n, "strategy": cfg.strategy, "input": cfg.input},
        "analytic": analytic,
        "trace": res.trace,
        "corrections": [list(c) for c in res.corrections],
        "state": fock.state_to_json(res.output_state) if res.output_state is not None else None,
        "empirical": None,
    }
    if cfg.trials:
        if cfg.seed is None:
            _say("error: --seed is required for sampling runs")
            return 2
        if trial is None:
            _say(f"error: protocol {cfg.protocol!r} does not support --trials")
            return 2
        stats = costs.monte_carlo(trial, cfg.trials, cfg.seed)
        report["empirical"] = stats.to_json()
        _say(f"{cfg.protocol}: empirical rate {stats.rate:.6f} over {cfg.trials} trials "
             f"(analytic {trial.analytic:.6f})")
    else:
        _say(f"{cfg.protocol}: " + ", ".join(f"{k} = {v}" for k, v in analytic.items()))
    if cfg.trace_out:
        with open(cfg.trace_out, "w") as fh:
            for step in res.trace:
                fh.write(json.dumps(step, sort_keys=True, separators=(",", ":")) + "\n")
    _emit(report, cfg.out)
    return 0


# -- decompose ----------------------------------------------------------------


def _parse_matrix(data) -> np.ndarray:
    if isinstance(data, dict):
        data = data["matrix"]
    rows = []
    for row in data:
        entries = []
        for cell in row:
            if isinstance(cell, (int, float)):
                entries.append(complex(cell))
            elif isinstance(cell, (list, tuple)):
                entries.append(complex(cell[0], cell[1]))
            elif isinstance(cell, dict):
                entries.append(complex(cell.get("re", 0.0), cell.get("im", 0.0)))
            else:
                entries.append(complex(cell))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def cmd_decompose(path: str, tol: float, out: str | None) -> int:
    with open(path) as fh:
        mat = _parse_matrix(json.load(fh))
    residual = optics.unitarity_residual(mat)
    if residual > tol:
        _say(f"error: input is not unitary (residual {residual:.3e} > {tol:.1e})")
        return 2
    seq = optics.decompose_reck(optics.ModeUnitary(mat, tol=tol))
    redone = optics.compose(seq)
    roundtrip = float(np.abs(redone.matrix - mat).max())
    _say(f"decomposed {mat.shape[0]} modes into {len(seq.elements)} elements; "
         f"recomposition residual {roundtrip:.3e}")
    _emit(optics.sequence_to_json(seq), out)
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(suite: str, out: str | None) -> int:
    checks, ok = verify.run_suite(suite)
    for c in checks:
        _say(c.line())
    _emit({
        "suite": suite,
        "passed": ok,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }, out)
    return 0 if ok else 1


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockworks",
        description="Exact Fock-space simulation of linear-optics gate protocols.",
    )
    parser.add_argument("--config", help="JSON config file (default: $FOCKWORKS_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a protocol and report probabilities")
    run.add_argument("protocol", choices=[
        "ns1", "csign", "teleport", "b4prime", "tpn", "tprime",
        "parity", "distribute", "teleport-e", "source",
    ])
    run.add_argument("--input", help="comma-separated input amplitudes (protocol-specific)")
    run.add_argument("--n", type=int, help="teleportation resource size")
    run.add_argument("--strategy", choices=["ideal", "ns", "teleported"])
    run.add_argument("--detector", choices=["bucket", "counter"])
    run.add_argument("--seed", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--tol", type=float)
    run.add_argument("--out", help="write the JSON report to this path")
    run.add_argument("--trace-out", dest="trace_out",
                     help="write the protocol trace as JSON lines to this path")

    dec = sub.add_parser("decompose", help="decompose a unitary into a netlist")
    dec.add_argument("matrix", help="JSON file with the matrix")
    dec.add_argument("--tol", type=float)
    dec.add_argument("--out")

    ver = sub.add_parser("verify", help="run an acceptance suite")
    ver.add_argument("suite", nargs="?", default="all", choices=sorted(verify.SUITES))
    ver.add_argument("--out")
    return parser


def resolve_config(args) -> RunConfig:
    defaults = {"n": 1, "strategy": "ns", "tol": 1e-10, "seed": None,
                "trials": None, "out": None, "input": None}
    defaults.update(_load_config_defaults(args.config))
    cfg = RunConfig(
        command=args.command,
        protocol=getattr(args, "protocol", None),
        n=args.n if getattr(args, "n", None) is not None else defaults["n"],
        strategy=getattr(args, "strategy", None) or defaults["strategy"],
        seed=args.seed if getattr(args, "seed", None) is not None else defaults["seed"],
        trials=args.trials if getattr(args, "trials", None) is not None else defaults["trials"],
        tol=args.tol if getattr(args, "tol", None) is not None else defaults["tol"],
        out=getattr(args, "out", None) or defaults["out"],
        input=getattr(args, "input", None) or defaults["input"],
        trace_out=getattr(args, "trace_out", None) or defaults.get("trace_out"),
        detector=getattr(args, "detector", None) or defaults.get("detector", "bucket"),
    )
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = resolve_config(args)
            if cfg.protocol == "csign" and getattr(args, "strategy", None) is None \
                    and getattr(args, "n", None) is not None:
                cfg.strategy = "teleported"
            return cmd_run(cfg)
        if args.command == "decompose":
            cfg = resolve_config(args)
            return cmd_decompose(args.matrix, cfg.tol, cfg.out)
        if args.command == "verify":
            return cmd_verify(args.suite, args.out)
    except (OSError, ValueError, KeyError, fock.FockError) as exc:
        _say(f"error: {exc}")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
