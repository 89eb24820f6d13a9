"""The hash-seed differential: a seeded run must not depend on hash order.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so code
that iterates a set of strings (instance ids, formats, record keys) can
reorder a run without changing any seed.  The same churned, faulted
``repro run`` is made in two processes with hash seeds 0 and 1; the
telemetry export and the sanitizer ledger must come out byte-identical,
and a ledger that does not is named at its first divergent record.
CI's ``sanitize`` job runs the same pair from the command line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.sim.sanitizer import compare_ledger_files

REPO = Path(__file__).resolve().parents[2]
RUN = (
    "run", "--rate", "100", "--horizon", "20", "--churn", "25", "--seed", "0",
    "--faults", str(REPO / "examples" / "plans" / "ci-chaos.json"),
)


def _run(tmp_path: Path, hash_seed: str):
    telemetry = tmp_path / f"telemetry-{hash_seed}.jsonl"
    ledger = tmp_path / f"ledger-{hash_seed}.jsonl"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *RUN,
         "--telemetry", str(telemetry), "--sanitize", str(ledger)],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return telemetry, ledger


def test_runs_are_byte_identical_across_hash_seeds(tmp_path):
    telemetry_0, ledger_0 = _run(tmp_path, "0")
    telemetry_1, ledger_1 = _run(tmp_path, "1")
    verdict = compare_ledger_files(str(ledger_0), str(ledger_1))
    assert verdict.identical, verdict.render()
    assert ledger_0.read_bytes() == ledger_1.read_bytes()
    assert telemetry_0.stat().st_size > 0
    assert telemetry_0.read_bytes() == telemetry_1.read_bytes()
