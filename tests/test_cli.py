import json
import math

import numpy as np

from fockworks import optics
from fockworks.cli import RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_monte_carlo_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "run", "ns1", "--trials", "100")
        assert code == 2
        assert "seed" in err

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

    def test_flag_beats_config(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 3}))
        monkeypatch.setenv("FOCKWORKS_CONFIG", str(cfg_path))
        code, out, _ = run_cli(capsys, "run", "teleport", "--n", "1")
        report = json.loads(out)
        assert abs(report["analytic"]["failure_probability"] - 0.5) < 1e-10

