"""Seeded outputs pinned by SHA-256: a stream change nobody meant to make fails here.

Criterion 12 only checks that two runs of one tree agree.  This test
compares the CLI's stdout and a batch of sampler results against the sums
in pinned_outputs.json, taken with the numpy version recorded there.  A
change that alters a seeded stream on purpose rewrites the pin file in the
same commit, with `PYTHONPATH=src python tests/test_pinned_outputs.py`,
which prints the names of the sums it changed, and says in CHANGES.md
which sums changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from uccsim import cli
from uccsim.distributions import Distribution, NoisyHypercube
from uccsim.sampling import (
    DEFAULT_MAX_CANDIDATES,
    SharedRandomness,
    correlated_sample,
    fresh_bits_per_round,
    hash_bits_per_round,
    one_way_rows,
    truncation_limit,
)

PIN_FILE = Path(__file__).with_name("pinned_outputs.json")
STRATEGY = "STRATEGY"

CLI_CASES = {
    # criterion 12's six subcommands
    "uncertain-run-n4": ["uncertain-run", "--n", "4", "--k", "1", "--delta", "0.05",
                         "--theta", "0.4", "--trials", "10", "--seed", "5"],
    "csample-bench": ["csample-bench", "--universe", "16", "--eps", "0.1", "--trials", "20",
                      "--tilt-grid", "0,1", "--seed", "2"],
    "lowerbound-sweep": ["lowerbound-sweep", "--p-grid", "0.05,0.1", "--n-grid", "1,2"],
    "agreement-audit": ["agreement-audit", "--size-y", "8", "--delta2", "0",
                        "--strategy", STRATEGY],
    "oracle-cc": ["oracle-cc", "--function", "parity:S=0b11", "--n", "2", "--mu", "noisy:0.1"],
    "family-audit": ["family-audit", "--n", "24", "--q", "0.25", "--p", "0.1",
                     "--samples", "100", "--seed", "8"],
    # larger uncertain-run CSVs, one per input distribution and size
    "uncertain-run-n8": ["uncertain-run", "--n", "8", "--k", "2", "--delta", "0.05",
                         "--theta", "0.3", "--trials", "300", "--mu", "noisy:0.1", "--seed", "7"],
    "uncertain-run-n10": ["uncertain-run", "--n", "10", "--k", "2", "--eps", "0.01",
                          "--delta", "0.05", "--theta", "0.3", "--trials", "300",
                          "--mu", "product", "--seed", "3"],
    "uncertain-run-n12": ["uncertain-run", "--n", "12", "--k", "2", "--delta", "0.05",
                          "--theta", "0.3", "--trials", "300", "--mu", "noisy:0.1",
                          "--seed", "5"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_stdout(argv, strategy: Path) -> bytes:
    argv = [str(strategy) if arg == STRATEGY else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    # the strategy's path is echoed in the header and differs between runs
    return out.getvalue().replace(str(strategy), STRATEGY).encode()


def _one_way_batch() -> bytes:
    """Every output of two blocks of one_way_rows at one_way_block's c fresh bits a round.

    Small and large universes, many rows; c is 3 on the first and 38 on the second.
    """
    parts = []
    for n, noise, m, eps, repeats, seed in ((2, 0.2, 2, 0.2, 100, 50),
                                            (8, 0.1, 300, 0.01, 1, 51)):
        mu = NoisyHypercube(n, noise)
        xs = np.arange(mu.size_x).repeat(repeats)
        outputs = one_way_rows(mu, xs, mu.marginal_y(), m, hash_bits_per_round(eps / 2.0),
                               fresh_bits_per_round(m, mu.mutual_information()),
                               truncation_limit(mu, m, eps), np.random.default_rng(seed))
        parts += [np.asarray(out).astype("<i8").tobytes() for out in outputs]
    return b"".join(parts)


def _interactive_batch() -> bytes:
    """correlated_sample results on two pairs, at the default and a two-round candidate cap."""
    weights = np.arange(1.0, 17.0)
    pairs = ((Distribution(weights / weights.sum()), Distribution.uniform(16)),
             (Distribution.point_mass(16, 5), Distribution.uniform(16)))
    results = []
    for index, (p, q) in enumerate(pairs):
        for max_candidates in (DEFAULT_MAX_CANDIDATES, 32):
            for seed in range(100):
                a, b, stats = correlated_sample(p, q, 0.1, SharedRandomness((52, index, seed)),
                                                max_candidates)
                results.append((a, b, stats.bits_alice, stats.bits_bob, stats.rounds,
                                int(stats.success)))
    return np.array(results, dtype="<i8").tobytes()


def seeded_sums(tmp_dir: Path) -> dict[str, str]:
    strategy = tmp_dir / "identity.json"
    strategy.write_text(json.dumps({"kind": "identity"}))
    sums = {name: _sha256(_cli_stdout(argv, strategy)) for name, argv in CLI_CASES.items()}
    sums["one_way_rows"] = _sha256(_one_way_batch())
    sums["correlated_sample"] = _sha256(_interactive_batch())
    return sums


def test_seeded_outputs_match_the_pins(tmp_path):
    pins = json.loads(PIN_FILE.read_text())
    got = seeded_sums(tmp_path)
    changed = sorted(name for name in pins["sha256"] if got.get(name) != pins["sha256"][name])
    note = ("" if pins["numpy"] == np.__version__ else
            f"; the pins were taken with numpy {pins['numpy']} and this is numpy "
            f"{np.__version__}, whose generators may draw differently")
    assert got.keys() == pins["sha256"].keys() and not changed, \
        f"seeded outputs changed: {changed}{note}"


if __name__ == "__main__":
    import tempfile

    old = json.loads(PIN_FILE.read_text())["sha256"] if PIN_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        sums = seeded_sums(Path(tmp))
    PIN_FILE.write_text(json.dumps({"numpy": np.__version__, "sha256": sums}, indent=2) + "\n")
    # added and dropped sums count as changed
    changed = [name for name in {**old, **sums} if old.get(name) != sums.get(name)]
    print(f"changed: {', '.join(changed) or 'none'}")
