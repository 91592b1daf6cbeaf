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
import typing
from dataclasses import asdict, dataclass, fields

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


# the fields a flag or a config file sets, with their types
_OPTIONS = {f.name: f.type for f in fields(RunConfig) if f.name not in ("command", "protocol")}


def _load_config_defaults(path: str | None) -> dict:
    """The options a config file sets, each a RunConfig option of its field's type."""
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} is not a JSON object")
    choices = _choices()
    for key, value in data.items():
        if key not in _OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        kind = _OPTIONS[key]
        kinds = typing.get_args(kind) or (kind,)
        kinds += (int,) if float in kinds else ()
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"config key {key!r} needs {getattr(kind, '__name__', kind)}, "
                             f"got {value!r}")
        allowed = choices.get(key)
        if allowed is not None and value not in allowed:
            raise ValueError(f"config key {key!r} must be one of {', '.join(allowed)}, "
                             f"got {value!r}")
    return data


def _choices() -> dict:
    """The values each option's flag allows, read from ``build_parser``."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.choices for sub in subparsers.choices.values() for a in sub._actions
            if a.dest in _OPTIONS and a.choices is not None}


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


def _at_least_two(cfg: RunConfig) -> int:
    """The size a gadget that needs n >= 2 runs at: n = 1 runs at 2, which
    ``cfg.n`` then reports; n < 1 is refused."""
    if cfg.n < 1:
        raise ValueError(f"{cfg.protocol} needs n >= 1, got {cfg.n}")
    cfg.n = max(cfg.n, 2)
    return cfg.n


def _analytic_report(cfg: RunConfig):
    """Returns (exact ProtocolResult, analytic summary dict)."""
    name, extra = cfg.protocol, {}
    if name == "ns1":
        amps = _parse_amplitudes(cfg.input or "1,1,1", 3)
        res = protocols.apply_ns1(fock.FockState(1, {(k,): amps[k] for k in range(3)}), 0)
    elif name == "csign":
        raw = (cfg.input or "1,0,0,1").split(",")
        if len(raw) != 4:
            raise ValueError("csign input needs 4 amplitudes: a0,a1,b0,b1")
        first = _parse_amplitudes(",".join(raw[:2]), 2)
        second = _parse_amplitudes(",".join(raw[2:]), 2)
        q = fock.tensor(protocols.encode_qubit(*first), protocols.encode_qubit(*second))
        q1, q2 = protocols.BosonicQubit(0, 1), protocols.BosonicQubit(2, 3)
        if cfg.strategy == "ideal":
            res = protocols.apply_csign_modes(q, 0, 2, strategy="ideal")
        elif cfg.strategy == "teleported":
            res = protocols.csign_teleported(q, q1, q2, cfg.n)
        else:
            res = protocols.csign_via_ns(q, q1, q2)
    elif name == "teleport":
        amps = _parse_amplitudes(cfg.input or "1,1", 2)
        res = protocols.teleport_tn(costs.encode_single_rail(amps[0], amps[1]), 0, cfg.n)
        extra = {"failure_probability": res.details["failure_probability"]}
    elif name == "b4prime":
        res = protocols.prepare_b4_prime()
    elif name == "tpn":
        res = protocols.prepare_tp_n(cfg.n, strategy=cfg.strategy)
        extra = {"csign_count": res.details["csign_count"]}
    elif name == "tprime":
        res = protocols.combine_tp_to_tprime(cfg.n, strategy=cfg.strategy)
    elif name == "parity":
        amps = _parse_amplitudes(cfg.input or "1,1", 2)
        state = fock.FockState(2, {(0, 1): amps[0], (1, 0): amps[1]})
        res = protocols.parity_measure(state, 0, 1, _at_least_two(cfg))
        extra = {"parities": sorted({*res.details["branches"].parity.tolist()} - {-1})}  # -1: failed
    elif name == "distribute":
        res = protocols.distribute_entanglement(_at_least_two(cfg))
        return res, {"acceptance_probability": res.details["acceptance_probability"]}
    elif name == "teleport-e":
        amps = _parse_amplitudes(cfg.input or "1,1", 2)
        res = protocols.teleport_with_e(amps[0], amps[1], n=_at_least_two(cfg))
    elif name == "source":
        r = float(cfg.input or "0.1")
        det = measure.Counter() if cfg.detector == "counter" else measure.Bucket()
        prob, state, fid = source.heralded_single_photon(source.SqueezeParam(r), det)
        return protocols.ProtocolResult(True, prob, state), {"herald_probability": prob, "fidelity": fid}
    else:
        raise ValueError(f"unknown protocol {cfg.protocol!r}")
    return res, {"success_probability": res.success_probability, **extra}


def cmd_run(cfg: RunConfig) -> int:
    if cfg.trials is not None:  # checked before the exact analysis, which can take seconds
        if cfg.seed is None:
            raise ValueError("--seed is required for sampling runs")
        costs.check_trials(cfg.trials)
    res, analytic = _analytic_report(cfg)
    report = {
        "protocol": cfg.protocol,
        "params": {"n": cfg.n, "strategy": cfg.strategy, "input": cfg.input},
        "analytic": analytic,
        "trace": res.trace,
        "corrections": [list(c) for c in res.corrections],
        "state": fock.state_to_json(res.output_state) if res.output_state is not None else None,
        "empirical": None,
    }
    if cfg.trials is not None:
        trial = costs.trial_from(res)
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


def _entry(cell) -> complex:
    """A matrix entry: a number (or numeric string), [re, im] or {"re": .., "im": ..}."""
    try:
        if isinstance(cell, list):
            re, im = cell
            return complex(re, im)
        if isinstance(cell, dict):
            return complex(cell.get("re", 0.0), cell.get("im", 0.0))
        return complex(cell)
    except (TypeError, ValueError):
        raise ValueError(f"not a matrix entry: {cell!r}") from None


def _parse_matrix(data) -> np.ndarray:
    """A non-empty square matrix: a list of rows of entries, or {"matrix": rows}."""
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError('expected a matrix: a list of rows, or {"matrix": rows}')
    lengths = [len(row) for row in data]
    if len(set(lengths)) > 1:
        raise optics.NonUnitaryError(f"expected a square matrix, got rows of lengths {lengths}")
    shape = (len(data), *lengths[:1])
    if shape != (len(data),) * 2:
        raise optics.NonUnitaryError(f"expected a square matrix, got shape {shape}")
    return np.array([[_entry(cell) for cell in row] for row in data], dtype=complex)


def cmd_decompose(path: str, tol: float, out: str | None) -> int:
    with open(path) as fh:
        mat = _parse_matrix(json.load(fh))
    residual = optics.unitarity_residual(mat)
    if not residual <= tol:  # a NaN residual (NaN or inf entries) fails too
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
    """Flags over the config file over RunConfig's own defaults."""
    cfg = RunConfig(command=args.command, protocol=getattr(args, "protocol", None),
                    **_load_config_defaults(args.config))
    for name in _OPTIONS:
        if getattr(args, name, None) not in (None, ""):
            setattr(cfg, name, getattr(args, name))
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
