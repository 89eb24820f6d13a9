"""The hash-seed differential: a seeded run must not depend on hash order.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so code
that iterates a set of strings (instance ids, formats, record keys) can
reorder a run without changing any seed.  Each case runs twice, in
processes with hash seeds 0 and 1, and its output must come out
byte-identical:

* ``run`` -- the churned, faulted ``repro run``: the telemetry export
  and the sanitizer ledger, a divergent ledger named at its first
  divergent record;
* ``serve`` -- the scripted ``repro serve`` trace of
  ``tests/serve/test_determinism.py``: the telemetry export (the
  serving plane keeps no ledger).

This is the repo's one cross-module determinism check: hash order can
only do harm through output bytes, and these are the bytes.  ``int``
sets are not salted, so only ``str``/``bytes`` ordering can show here.
CI's ``sanitize`` job runs the ``run`` pair from the command line too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Tuple

import pytest

from repro.sim.sanitizer import compare_ledger_files

REPO = Path(__file__).resolve().parents[2]
RUN = (
    "run", "--rate", "100", "--horizon", "20", "--churn", "25", "--seed", "0",
    "--faults", str(REPO / "examples" / "plans" / "ci-chaos.json"),
)
SERVE = (
    "import sys\n"
    "from tests.serve.test_determinism import run_scripted_trace\n"
    "run_scripted_trace(sys.argv[1])\n"
)


def _run(case: str, tmp_path: Path,
         hash_seed: str) -> Tuple[Path, Optional[Path]]:
    telemetry = tmp_path / f"{case}-telemetry-{hash_seed}.jsonl"
    ledger: Optional[Path] = None
    if case == "run":
        ledger = tmp_path / f"{case}-ledger-{hash_seed}.jsonl"
        argv = ["-m", "repro", *RUN,
                "--telemetry", str(telemetry), "--sanitize", str(ledger)]
    else:
        argv = ["-c", SERVE, str(telemetry)]
    path = os.pathsep.join([str(REPO / "src"), str(REPO)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return telemetry, ledger


@pytest.mark.parametrize("case", ["run", "serve"])
def test_runs_are_byte_identical_across_hash_seeds(case, tmp_path):
    telemetry_0, ledger_0 = _run(case, tmp_path, "0")
    telemetry_1, ledger_1 = _run(case, tmp_path, "1")
    if case == "run":
        verdict = compare_ledger_files(str(ledger_0), str(ledger_1))
        assert verdict.identical, verdict.render()
        assert ledger_0.read_bytes() == ledger_1.read_bytes()
    assert telemetry_0.stat().st_size > 0
    assert telemetry_0.read_bytes() == telemetry_1.read_bytes()
