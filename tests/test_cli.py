"""Tests for the command-line drivers: smoke runs, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from uccsim import uncertain
from uccsim.agreement import greedy_covering_code
from uccsim.cli import main


def read(path):
    return path.read_text()


def test_uncertain_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = main(["uncertain-run", "--n", "4", "--k", "1", "--delta", "0.05",
                 "--theta", "0.4", "--trials", "20", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("# uccsim uncertain-run seed=5")
    assert lines[1] == "trial,x,y,output,truth,correct,bits,sampling_ok"
    assert len(lines) == 22
    first = lines[2].split(",")
    assert first[0] == "0" and first[5] in "01"
    summary = capsys.readouterr().out
    assert "error_rate=" in summary and "mean_bits=" in summary


def test_uncertain_run_deterministic_and_job_invariant(tmp_path):
    outs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        assert main(["uncertain-run", "--n", "4", "--k", "1", "--delta", "0.05",
                     "--theta", "0.4", "--trials", "16", "--seed", "9",
                     "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(read(out))
    assert outs[0] == outs[1] == outs[2]


def test_uncertain_run_runs_each_trial_once(tmp_path, capsys, monkeypatch):
    calls = []
    run_once = uncertain.run_uncertain_protocol

    def counted(*args, **kwargs):
        calls.append(1)
        return run_once(*args, **kwargs)

    monkeypatch.setattr(uncertain, "run_uncertain_protocol", counted)
    out = tmp_path / "runs.csv"
    assert main(["uncertain-run", "--n", "4", "--k", "1", "--delta", "0.05",
                 "--theta", "0.4", "--trials", "10", "--seed", "5",
                 "--out", str(out)]) == 0
    assert len(calls) == 10
    rows = [line.split(",") for line in read(out).splitlines()[2:]]
    summary = dict(token.split("=") for token in capsys.readouterr().out.split())
    wrong = sum(row[3] != row[4] for row in rows)
    assert summary["error_rate"] == f"{wrong / len(rows):.6f}"
    assert summary["mean_bits"] == f"{sum(int(row[6]) for row in rows) / len(rows):.2f}"
    assert summary["sampling_failures"] == str(sum(row[7] == "0" for row in rows))


def test_csample_bench_output(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["csample-bench", "--universe", "16", "--eps", "0.1",
                 "--trials", "30", "--tilt-grid", "0,2", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[1] == "seed,tilt,D_PQ_bits,eps,bits_alice,rounds,success"
    assert len(lines) == 2 + 60
    summary = capsys.readouterr().out
    assert "C=" in summary and "mean_bits=" in summary


def test_csample_bench_rejects_bad_universe(capsys):
    assert main(["csample-bench", "--universe", "15", "--eps", "0.1",
                 "--trials", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lowerbound_sweep_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["lowerbound-sweep", "--p-grid", "0.05,0.1", "--n-grid", "1,2",
                 "--eps", "0.25", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[1] == "p,n,spectral_bound,disc_exact,cc_lb_bits,gamma"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    for row in rows:
        assert float(row[5]) > 0
        if row[1] == "1":
            assert row[3] != ""
        else:
            assert row[3] == ""


def test_agreement_audit_identity(tmp_path):
    strategy = tmp_path / "identity.json"
    strategy.write_text(json.dumps({"kind": "identity"}))
    out = tmp_path / "audit.txt"
    code = main(["agreement-audit", "--size-y", "8", "--delta2", "0",
                 "--strategy", str(strategy), "--out", str(out)])
    assert code == 0
    assert "min_entropy_bits=8.000000" in read(out)


def test_agreement_audit_constant_rejected(tmp_path, capsys):
    strategy = tmp_path / "const.json"
    strategy.write_text(json.dumps({"kind": "constant", "value": 0}))
    code = main(["agreement-audit", "--size-y", "8", "--delta2", "0.2",
                 "--strategy", str(strategy)])
    assert code == 2
    assert "too far" in capsys.readouterr().err


def test_agreement_audit_codewords(tmp_path):
    size = 10
    strategy = tmp_path / "code.json"
    strategy.write_text(json.dumps({"kind": "codewords", "size_y": size,
                                    "codewords": greedy_covering_code(size, 2)}))
    out = tmp_path / "audit.txt"
    code = main(["agreement-audit", "--size-y", str(size), "--delta2", "0.2",
                 "--strategy", str(strategy), "--out", str(out)])
    assert code == 0
    text = read(out)
    h_inf = float(text.split("min_entropy_bits=")[1].splitlines()[0])
    floor = float(text.split("entropy_floor_bits=")[1].splitlines()[0])
    assert h_inf >= floor


def test_oracle_cc_values(capsys):
    assert main(["oracle-cc", "--function", "parity:S=0b101", "--n", "3",
                 "--mu", "noisy:0.1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["oracle-cc", "--function", "const:1", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["oracle-cc", "--function", "eq", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_family_audit_passes(tmp_path):
    out = tmp_path / "family.txt"
    code = main(["family-audit", "--n", "60", "--q", "0.2", "--p", "0.1",
                 "--samples", "300", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out).splitlines()[1])
    assert doc["samples"] == 300
    assert doc["mask_gap_over_budget_rate"] <= doc["chernoff_bound"] + 0.05
    # Small widths also exercise the dense protocol cross-check.
    assert main(["family-audit", "--n", "8", "--q", "0.25", "--p", "0.1",
                 "--samples", "50", "--seed", "4", "--out",
                 str(tmp_path / "family_small.txt")]) == 0


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["uncertain-run", "--n", "4"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1


def test_validation_errors_exit_two(tmp_path, capsys):
    assert main(["uncertain-run", "--n", "4", "--k", "1", "--delta", "1.0",
                 "--theta", "0.4", "--trials", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["uncertain-run", "--n", "15", "--k", "1", "--delta", "0.05",
                 "--theta", "0.3", "--trials", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["family-audit", "--n", "8", "--q", "0.2", "--p", "0.1",
                 "--samples", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["csample-bench", "--universe", "16", "--eps", "0.1",
                 "--trials", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    for name, doc in (("missing.json", {"kind": "constant"}), ("list.json", [1])):
        strategy = tmp_path / name
        strategy.write_text(json.dumps(doc))
        assert main(["agreement-audit", "--size-y", "8", "--delta2", "0.2",
                     "--strategy", str(strategy)]) == 2
        assert "error:" in capsys.readouterr().err


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("UCCSIM_SEED", "42")
    out = tmp_path / "sweep.csv"
    assert main(["lowerbound-sweep", "--p-grid", "0.1", "--n-grid", "1",
                 "--out", str(out)]) == 0
    assert "seed=42" in read(out).splitlines()[0]


def test_module_entry_point_byte_identical(tmp_path):
    cmd = [sys.executable, "-m", "uccsim.cli", "csample-bench", "--universe", "8",
           "--eps", "0.1", "--trials", "10", "--tilt-grid", "0,1", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
