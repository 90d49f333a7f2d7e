"""Tests for the command-line drivers: smoke runs, determinism, exit codes."""

import json
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uccsim import uncertain
from uccsim.agreement import greedy_covering_code
from uccsim.cli import main
from uccsim.distributions import Distribution, derive_rng
from uccsim.sampling import correlated_rows


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


def test_uncertain_run_deterministic_across_trial_blocks(tmp_path):
    # one block of 16 trials, then three trial blocks of 512, the last one partial
    block = uncertain.TRIAL_BLOCK // max(256, uncertain.choose_sample_count(1, 0.4))
    assert (block, -(-1064 // block)) == (512, 3)
    for n, trials in (("4", 16), ("8", 1064)):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["uncertain-run", "--n", n, "--k", "1", "--delta", "0.05",
                         "--theta", "0.4", "--trials", str(trials), "--seed", "9",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = outs[0].splitlines()[2:]
        assert [int(row.split(b",")[0]) for row in rows] == list(range(trials))


def test_uncertain_run_runs_each_trial_once(tmp_path, capsys, monkeypatch):
    runs = []
    run_rows = uncertain._run_rows

    def counted(instance, xs, *args):
        runs.extend(xs)
        return run_rows(instance, xs, *args)

    monkeypatch.setattr(uncertain, "_run_rows", counted)
    out = tmp_path / "runs.csv"
    # one block of 10 trials, then three blocks (the last partial) with sampling failures
    for case, trials in ((["--n", "4", "--theta", "0.4", "--seed", "5"], 10),
                         (["--n", "8", "--theta", "0.9", "--mu", "noisy:0.1", "--seed", "9"],
                          1064)):
        runs.clear()
        assert main(["uncertain-run", "--k", "1", "--delta", "0.05", "--trials", str(trials),
                     "--out", str(out)] + case) == 0
        assert len(runs) == trials
        rows = [line.split(",") for line in read(out).splitlines()[2:]]
        assert [int(row[0]) for row in rows] == list(range(trials))
        assert all(row[5] == str(int(row[3] == row[4])) for row in rows)
        summary = dict(token.split("=") for token in capsys.readouterr().out.split())
        wrong = sum(row[3] != row[4] for row in rows)
        assert summary["error_rate"] == f"{wrong / len(rows):.6f}"
        assert summary["mean_bits"] == f"{sum(int(row[6]) for row in rows) / len(rows):.2f}"
        assert summary["sampling_failures"] == str(sum(row[7] == "0" for row in rows))
        assert summary["trials"] == str(trials)
    # the multi-block run: its seeded figures
    assert (summary["error_rate"], summary["sampling_failures"]) == ("0.025376", "4")


def test_uncertain_run_prints_the_sample_count(tmp_path, capsys):
    # mean_bits splits into the sample_count revealed bits and the payload
    out = tmp_path / "runs.csv"
    assert main(["uncertain-run", "--n", "6", "--k", "2", "--delta", "0.05",
                 "--theta", "0.3", "--trials", "40", "--mu", "noisy:0.1", "--seed", "4",
                 "--out", str(out)]) == 0
    summary = dict(token.split("=") for token in capsys.readouterr().out.split())
    m = uncertain.choose_sample_count(2, 0.3)
    assert summary["sample_count"] == str(m)
    rows = [line.split(",") for line in read(out).splitlines()[2:]]
    assert len(rows) == 40 and all(int(row[6]) >= m for row in rows)


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
    # each tilt's rows are one correlated_rows call on the (seed, tilt) stream, in trial order
    q = Distribution.uniform(16)
    for tilt, rows in ((0, lines[2:32]), (2, lines[32:62])):
        p = Distribution(np.r_[np.full(16 >> tilt, 1.0 / (16 >> tilt)),
                               np.zeros(16 - (16 >> tilt))])
        _, _, bits, rounds, success = correlated_rows(p, q, 0.1, 30, derive_rng(3, tilt))
        assert [row.split(",")[4:] for row in rows] == \
            [[str(b), str(r), str(int(ok))] for b, r, ok in zip(bits, rounds, success)]


def test_csample_bench_rejects_bad_universe(capsys):
    assert main(["csample-bench", "--universe", "15", "--eps", "0.1",
                 "--trials", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    # a power of two over the table cap exits before two distributions are allocated
    assert main(["csample-bench", "--universe", "1048576", "--eps", "0.1",
                 "--trials", "1", "--tilt-grid", "0"]) == 2
    assert "16384" in capsys.readouterr().err


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
        # both n are within discrepancy_exact's reach
        assert 0 < float(row[3]) <= float(row[2]) + 1e-12


def test_lowerbound_sweep_large_n(tmp_path, capsys):
    # the bound is a power of a per-coordinate factor below 1, so it cannot overflow
    out = tmp_path / "sweep.csv"
    assert main(["lowerbound-sweep", "--p-grid", "0.05", "--n-grid", "3,20000",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in read(out).splitlines()[2:]]
    assert [row[3] for row in rows] == ["", ""]
    assert float(rows[1][2]) > 0 and float(rows[1][5]) == pytest.approx(0.888, abs=5e-4)
    # a bound that underflows to 0 is a validation error naming n and p
    assert main(["lowerbound-sweep", "--p-grid", "0.05", "--n-grid", "100000"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "n = 100000" in err and "p = 0.05" in err


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


def test_uncertain_run_checks_cheap_arguments_before_the_build(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        pytest.fail("generate_instance ran before the arguments were checked")

    monkeypatch.setattr("uccsim.cli.generate_instance", no_build)
    base = {"--n": "14", "--k": "2", "--delta": "0.05", "--theta": "0.3", "--trials": "10"}
    for flag, bad in (("--theta", "1.5"), ("--trials", "0"), ("--k", "1100")):
        args = dict(base, **{flag: bad})
        assert main(["uncertain-run", *(token for item in args.items() for token in item)]) == 2
        assert "error:" in capsys.readouterr().err


def test_oracle_cc_rejects_large_n_before_building(monkeypatch, capsys):
    # 2^n over the oracle's cap exits 2 before an eq table or a popcount table is built
    def no_build(*args, **kwargs):
        pytest.fail("a function was built past the oracle's cap")

    monkeypatch.setattr("uccsim.cli.TableFunction", no_build)
    monkeypatch.setattr("uccsim.cli.parity.ParityFunction", no_build)
    for spec, n in (("eq", "20"), ("parity:S=1", "30"), ("const:1", "4")):
        assert main(["oracle-cc", "--function", spec, "--n", n]) == 2
        assert "oracle domain capped at 8 x 16" in capsys.readouterr().err


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
    # a product mu over more bits than a capped side exits before its marginals are built
    for n in ("22", "40"):
        tracemalloc.start()
        try:
            code = main(["uncertain-run", "--n", n, "--k", "1", "--delta", "0.05",
                         "--theta", "0.3", "--trials", "1", "--mu", "product"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 8 << 20
        assert "error:" in capsys.readouterr().err
    for name, doc in (("missing.json", {"kind": "constant"}), ("list.json", [1])):
        strategy = tmp_path / name
        strategy.write_text(json.dumps(doc))
        assert main(["agreement-audit", "--size-y", "8", "--delta2", "0.2",
                     "--strategy", str(strategy)]) == 2
        assert "error:" in capsys.readouterr().err


def readme_commands():
    """Every `uccsim ...` line of README's Command line code blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("uccsim ")]


def test_readme_examples_run(tmp_path):
    # each example exits 0 as written, with a temporary identity strategy file;
    # every subcommand but oracle-cc, which draws nothing, also takes --seed
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"kind": "identity"}))
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        argv = [str(strategy) if arg == "strategy.json" else arg for arg in argv]
        assert main(argv) == 0, argv
        if argv[0] != "oracle-cc" and "--seed" not in argv:
            assert main(argv + ["--seed", "1"]) == 0, argv


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
