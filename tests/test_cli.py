import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fockworks
from fockworks import cli, costs, optics
from fockworks.cli import RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_command_line(capsys):
    argv = ["run", "teleport", "--n", "3"]
    source = str(Path(fockworks.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "fockworks", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    code, out, _ = run_cli(capsys, *argv)
    assert done.returncode == code == 0
    assert done.stdout == out


class TestRun:
    def test_ns1_report(self, capsys):
        code, out, err = run_cli(capsys, "run", "ns1", "--input", "0,1,1", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert abs(report["analytic"]["success_probability"] - 0.25) < 1e-10
        assert report["state"]["modes"] == 1
        for step in report["trace"]:
            assert {"step", "kind", "p", "cum_p"} <= set(step)
        assert abs(report["trace"][-1]["cum_p"] - 0.25) < 1e-10

    def test_trace_out_json_lines(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "run", "tpn", "--n", "2", "--strategy", "ns",
                             "--trace-out", str(trace_path))
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert len(lines) >= 4
        steps = [json.loads(line) for line in lines]
        gates = [s for s in steps if s["kind"] == "gate"]
        assert len(gates) == 4  # conditional signs in the n=2 preparation
        assert abs(steps[-1]["cum_p"] - (1 / 16) ** 4) < 1e-18

    def test_teleport_failure_probability(self, capsys):
        code, out, _ = run_cli(capsys, "run", "teleport", "--n", "3")
        report = json.loads(out)
        assert abs(report["analytic"]["failure_probability"] - 0.25) < 1e-10

    def test_csign_teleported_via_n_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", "csign", "--n", "2")
        report = json.loads(out)
        assert abs(report["analytic"]["success_probability"] - 4 / 9) < 1e-10

    def test_csign_ideal_strategy_reports_the_oracle_gate(self, capsys):
        code, out, _ = run_cli(capsys, "run", "csign", "--strategy", "ideal",
                               "--input", "1,1,1,1")
        assert code == 0
        report = json.loads(out)
        assert report["params"]["strategy"] == "ideal"
        assert report["analytic"]["success_probability"] == 1.0
        amps = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in report["state"]["terms"]}
        assert len(amps) == 4
        for occ, amp in amps.items():
            sign = -1 if occ == (1, 0, 1, 0) else 1
            assert abs(amp - sign * 0.5) < 1e-12, occ

    def test_csign_teleported_writes_its_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "run", "csign", "--n", "2", "--trace-out", str(trace_path))
        assert code == 0
        steps = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert [s["step"] for s in steps] == ["fourier-x", "bm-x", "fourier-y", "bm-y"]
        assert json.loads(out)["trace"] == steps

    @pytest.mark.parametrize("protocol, step", [("tprime", "bm-ancilla"), ("distribute", "parity")])
    def test_trace_ends_with_the_last_detection(self, capsys, tmp_path, protocol, step):
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "run", protocol, "--n", "2", "--trace-out", str(trace_path))
        assert code == 0
        last = json.loads(trace_path.read_text().splitlines()[-1])
        assert (last["step"], last["kind"]) == (step, "measure")

    def test_run_has_no_tol_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "ns1", "--tol", "1e-3"])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_csign_ideal_strategy_has_no_trials(self, capsys):
        code, out, err = run_cli(capsys, "run", "csign", "--strategy", "ideal",
                                 "--trials", "10", "--seed", "1")
        assert code == 2
        assert "does not support --trials" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["b4prime"], ["parity"], ["teleport-e"],
                                      ["tprime", "--strategy", "ideal"]])
    def test_trials_run_on_any_whole_branch_tree(self, capsys, argv):
        args = ["run", *argv, "--trials", "4000", "--seed", "5"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        report = json.loads(out)
        p, rate = report["analytic"]["success_probability"], report["empirical"]["rate"]
        assert abs(rate - p) <= 6 * math.sqrt(p * (1 - p) / 4000)
        assert run_cli(capsys, *args)[1] == out

    @pytest.mark.parametrize("argv", [["distribute"], ["tpn"], ["tprime"], ["source"],
                                      ["csign", "--strategy", "ideal"]])
    def test_trials_refused_without_a_whole_branch_tree(self, capsys, argv):
        code, out, err = run_cli(capsys, "run", *argv, "--trials", "100", "--seed", "1")
        assert code == 2
        assert "does not support --trials" in err
        assert out == ""

    def test_oversize_teleport_exits_2(self, capsys):
        # one resource term alone bounds C(24, 12) = 2,704,156 outputs:
        # refused before the resource is built
        code, out, err = run_cli(capsys, "run", "teleport", "--n", "12")
        assert code == 2
        assert out == ""
        assert "at n = 12 may produce at least 2704156 terms" in err

    @pytest.mark.parametrize("protocol", ["teleport", "csign", "parity", "distribute", "teleport-e"])
    def test_a_huge_exact_gadget_exits_2_at_once(self, capsys, protocol):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "run", protocol, "--n", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "error: the evolution at n = 1000000000 may produce at least 1000000001 terms" in err

    @pytest.mark.parametrize("protocol, summed", [("csign", "1715 states may produce 5884165"),
                                                  ("parity", "1715 states may produce 4564889")])
    def test_oversize_teleported_gate_exits_2(self, capsys, protocol, summed):
        # each stage-2 evolution fits the budget, all of them together do
        # not: refused before the second detection expands anything
        code, out, err = run_cli(capsys, "run", protocol, "--n", "6")
        assert code == 2
        assert out == ""
        assert f"the evolutions of {summed} terms" in err

    @pytest.mark.parametrize("protocol", ["parity", "distribute", "teleport-e"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sizes_below_one_exit_2(self, capsys, protocol, n):
        code, out, err = run_cli(capsys, "run", protocol, "--n", n)
        assert code == 2
        assert out == ""
        assert f"error: {protocol} needs n >= 1, got {n}" in err

    @pytest.mark.parametrize("argv", [["parity"], ["distribute", "--n", "1"], ["teleport-e"]])
    def test_the_reported_size_is_the_size_run(self, capsys, argv):
        # these gadgets need n >= 2: n = 1 runs, and reports, n = 2
        code, out, _ = run_cli(capsys, "run", *argv)
        assert code == 0
        report = json.loads(out)
        assert report["params"]["n"] == 2
        again = run_cli(capsys, "run", argv[0], "--n", "2")[1]
        assert json.loads(again)["analytic"] == report["analytic"]

    def test_monte_carlo_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "run", "ns1", "--trials", "100")
        assert code == 2
        assert "seed" in err

    def test_trials_past_the_budget_are_refused(self, capsys):
        past = str(costs.MAX_TRIALS + 1)
        code, out, err = run_cli(capsys, "run", "teleport", "--trials", past, "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: {past} trials requested; the limit is {costs.MAX_TRIALS}\n"

    @pytest.mark.parametrize("flags", [["--trials", "0", "--seed", "1"], ["--trials", "-5", "--seed", "1"],
                                       ["--trials", str(costs.MAX_TRIALS + 1), "--seed", "1"],
                                       ["--trials", "5"]], ids=["zero", "negative", "past", "no seed"])
    def test_sampling_flags_are_checked_before_the_analysis(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "_analytic_report", None)  # a call would raise TypeError
        code, out, err = run_cli(capsys, "run", "teleport-e", "--n", "4", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_are_refused(self, capsys, trials):
        code, out, err = run_cli(capsys, "run", "ns1", "--trials", trials, "--seed", "1")
        assert code == 2
        assert "trials must be >= 1" in err
        assert out == ""

    def test_empirical_rates(self, capsys):
        code, out, _ = run_cli(capsys, "run", "ns1", "--trials", "20000", "--seed", "9")
        report = json.loads(out)
        emp = report["empirical"]
        sigma = math.sqrt(0.25 * 0.75 / 20000)
        assert abs(emp["rate"] - 0.25) <= 3 * sigma

    def test_reports_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "ns1", "--trials", "500", "--seed", "3")
        _, out2, _ = run_cli(capsys, "run", "ns1", "--trials", "500", "--seed", "3")
        assert out1 == out2

    def test_source_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", "source", "--input", "0.1")
        report = json.loads(out)
        assert abs(report["analytic"]["fidelity"] - (1 - math.tanh(0.1) ** 2)) < 1e-10

    @pytest.mark.parametrize("r", ["709", "711", "inf"])
    def test_source_beyond_the_cutoff_exits_2(self, capsys, r):
        code, out, err = run_cli(capsys, "run", "source", "--input", r)
        assert code == 2
        assert "tail weight" in err and "Traceback" not in err
        assert out == ""


class TestDecompose:
    def test_identity_gives_empty_netlist(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(json.dumps({"matrix": np.eye(3).tolist()}))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 0
        netlist = json.loads(out)
        assert netlist["elements"] == []
        assert netlist["global_phase"] == {"re": 1.0, "im": 0.0}

    def test_fourier_round_trip(self, capsys, tmp_path):
        f2 = optics.fourier_matrix(2).matrix
        path = tmp_path / "f2.json"
        path.write_text(json.dumps([[[c.real, c.imag] for c in row] for row in f2]))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 0
        seq = optics.sequence_from_json(json.loads(out))
        assert np.abs(optics.compose(seq).matrix - f2).max() < 1e-10
        assert "residual" in err

    def test_non_unitary_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[1, 1], [0, 1]]}))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert "not unitary" in err

    @pytest.mark.parametrize("matrix", ['[["nan"]]', "[[1e400, 0], [0, 1]]"], ids=["nan", "inf"])
    def test_non_finite_rejected(self, capsys, tmp_path, matrix):
        path = tmp_path / "bad.json"
        path.write_text(matrix)
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert "not unitary" in err

    @pytest.mark.parametrize("matrix, message", [
        ([], "expected a square matrix, got shape (0,)"),
        ([[]], "expected a square matrix, got shape (1, 0)"),
        ([[1, 0], [0]], "expected a square matrix, got rows of lengths [2, 1]"),
        ([[1, 0], [0, 1], [0, 0]], "expected a square matrix, got shape (3, 2)"),
        ({"re": 1.0}, "expected a matrix"),
        ([1, 0], "expected a matrix"),
        ([[None]], "not a matrix entry: None"),
        ([[[1]]], "not a matrix entry: [1]"),
    ], ids=["empty", "empty-row", "ragged", "3x2", "no-matrix-key", "flat", "null", "short-pair"])
    def test_malformed_matrix_is_named(self, capsys, tmp_path, matrix, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "/nonexistent.json")
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_oracles_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "oracles")
        assert code == 0
        summary = json.loads(out)
        assert summary["passed"] is True
        assert "[PASS]" in err


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="run", protocol="ns1", n=2, seed=5, trials=10)
        again = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg

    def test_config_file_defaults(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 3}))
        monkeypatch.setenv("FOCKWORKS_CONFIG", str(cfg_path))
        code, out, _ = run_cli(capsys, "run", "teleport")
        report = json.loads(out)
        assert abs(report["analytic"]["failure_probability"] - 0.25) < 1e-10

    @pytest.mark.parametrize("content, named", [
        ("[1]", "not a JSON object"),
        ('{"n": "abc"}', "'n'"),
        ('{"trials": 5.5, "seed": 1}', "'trials'"),
        ('{"input": 7}', "'input'"),
        ('{"bogus": 1}', "'bogus'"),
        ('{"seed": true}', "'seed'"),
    ], ids=["list", "n-str", "trials-float", "input-int", "unknown-key", "seed-bool"])
    def test_bad_config_exits_2(self, capsys, tmp_path, content, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        code, out, err = run_cli(capsys, "--config", str(cfg_path), "run", "teleport")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("key, value, protocol, allowed", [
        ("strategy", "foo", "csign", "ideal, ns, teleported"),
        ("detector", "x", "source", "bucket, counter"),
    ])
    def test_config_value_outside_the_choices_exits_2(self, capsys, tmp_path, key, value,
                                                      protocol, allowed):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "--config", str(cfg_path), "run", protocol)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and repr(key) in err and allowed in err

    def test_config_value_inside_the_choices_runs(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": "ideal"}))
        code, out, _ = run_cli(capsys, "--config", str(cfg_path), "run", "csign")
        assert code == 0 and json.loads(out)["params"]["strategy"] == "ideal"

    def test_flag_beats_config(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 3}))
        monkeypatch.setenv("FOCKWORKS_CONFIG", str(cfg_path))
        code, out, _ = run_cli(capsys, "run", "teleport", "--n", "1")
        report = json.loads(out)
        assert abs(report["analytic"]["failure_probability"] - 0.5) < 1e-10



# each RunConfig option a config file may set: values of its field's type
# (some out of range), then values of another type
_CONFIG_VALUES = {
    "n": ([1, 2, 3, 0, -1], ["2", 2.5, True, None]),
    "strategy": (["ideal", "ns", "teleported"], ["fast", 1]),
    "seed": ([0, 7, None], ["1", 1.5, False]),
    "trials": ([1, 20, None, 0, -3, costs.MAX_TRIALS + 1], ["5", 2.5]),
    "tol": ([1e-10, 0.5, 1, -1.0], ["x", True]),
    "out": ([None, "report.json"], [3, ["x"]]),  # a name in the run's own directory
    "input": ([None, "1,1", "0.6,0.8j", "1,0,0,1", "1,1,1", "0.1", "0,0", "nan,1", "x"], [1, 0.5]),
    "trace_out": ([None, "trace.jsonl"], [False]),
    "detector": (["bucket", "counter"], ["pnr", 0]),
}
_PROTOCOLS = ["ns1", "csign", "teleport", "b4prime", "tpn", "tprime", "parity", "distribute",
              "teleport-e", "source"]
_MATRICES = [[[0, 1], [1, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 1]], [[1, 0]], "x"]


@st.composite
def invocations(draw):
    """``(config, matrix, argv)``: a config object of some RunConfig options,
    a matrix for ``decompose`` and the command line, every flag of a valid
    form; small sizes and few trials, and counts past ``costs.MAX_TRIALS``."""
    config = {key: draw(st.sampled_from(good)) for key, (good, _) in _CONFIG_VALUES.items()
              if draw(st.integers(0, 3)) == 0}
    if draw(st.booleans()):  # one value of another type
        key = draw(st.sampled_from(list(_CONFIG_VALUES)))
        config[key] = draw(st.sampled_from(_CONFIG_VALUES[key][1]))
    command = draw(st.sampled_from(["run", "run", "run", "decompose", "verify"]))
    if command == "verify":
        return config, None, ["verify", draw(st.sampled_from(["states", "oracles"]))]
    if command == "decompose":
        tol = draw(st.sampled_from([[], ["--tol", "1e-10"], ["--tol", "0.5"]]))
        return config, draw(st.sampled_from(_MATRICES)), ["decompose", "MATRIX", *tol]
    argv = ["run", draw(st.sampled_from(_PROTOCOLS))]
    flags = {"--n": st.integers(-1, 3).map(str),
             "--strategy": st.sampled_from(["ideal", "ns", "teleported"]),
             "--detector": st.sampled_from(["bucket", "counter"]),
             "--seed": st.integers(0, 3).map(str),
             "--trials": st.sampled_from(["0", "1", "20", str(costs.MAX_TRIALS + 1)]),
             "--input": st.sampled_from(["1,1", "0.6,0.8j", "1,0,0,1", "0.2", "1,x"])}
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return config, None, argv


def _invoke(where, config, matrix, argv):
    """``(code, stdout, stderr, report file)`` of ``main`` on ``argv`` with
    ``config`` as its config file, run in the directory ``where``."""
    named = {key: os.path.join(where, value) if key in ("out", "trace_out") and isinstance(value, str)
             else value for key, value in config.items()}
    cfg_path, matrix_path = os.path.join(where, "cfg.json"), os.path.join(where, "matrix.json")
    for path, data in ((cfg_path, named), (matrix_path, matrix)):
        with open(path, "w") as fh:
            json.dump(data, fh)
    report = named.get("out") if isinstance(named.get("out"), str) else None
    if report and os.path.exists(report):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", cfg_path] + [matrix_path if a == "MATRIX" else a for a in argv])
    written = None
    if report and os.path.exists(report):
        with open(report) as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=60, deadline=None)
@given(invocations())
def test_the_command_line_exits_0_with_json_or_2_with_one_error_line(invocation):
    # an exception main does not turn into exit 2 fails the test as the traceback it would print
    with tempfile.TemporaryDirectory() as where:
        code, out, err, written = _invoke(where, *invocation)
        event(f"exit {code}")
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            return
        assert code == 0, err
        report = written if written is not None else out
        json.loads(report)
        assert _invoke(where, *invocation)[1:] == (out, err, written)
