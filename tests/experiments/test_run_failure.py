"""A failure inside the simulated request path stops the run.

The workload generator is a simulator process that nothing waits on, so
an exception raised by its sink used to end that process quietly:
``run_experiment`` drained and reported ψ over the requests made before
the failure, and ``repro run`` exited 0.  The engine now raises a failed
event that has no callback out of ``Simulator.step``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import run_experiment
from tests.experiments.test_runner import tiny_config

SRC = Path(__file__).resolve().parents[2] / "src"


class InjectedFailure(RuntimeError):
    pass


def _failing_at(k):
    """An aggregator factory whose ``aggregate`` raises at request ``k``."""

    def make(grid):
        aggregator = grid.make_aggregator("qsa")
        real, calls = aggregator.aggregate, []

        def aggregate(request):
            calls.append(request.request_id)
            if len(calls) == k:
                raise InjectedFailure(f"request {k}")
            return real(request)

        aggregator.aggregate = aggregate
        return aggregator

    return make


@pytest.mark.parametrize("churn", [0.0, 5.0])
def test_a_sink_failure_raises_out_of_run_experiment(churn):
    config = tiny_config(churn=churn)
    whole = run_experiment(config, make_aggregator=_failing_at(10**9))
    assert whole.n_requests > 40
    with pytest.raises(InjectedFailure, match="request 40"):
        run_experiment(config, make_aggregator=_failing_at(40))


_CLI = """
import sys
from repro.cli import main
from repro.core.aggregation import QSAAggregator

real, calls = QSAAggregator.aggregate, []

def aggregate(self, request):
    calls.append(request)
    if len(calls) == int(sys.argv[1]):
        raise IndexError("injected at request " + sys.argv[1])
    return real(self, request)

QSAAggregator.aggregate = aggregate
sys.exit(main(["run", "--rate", "100", "--horizon", "5"]))
"""


def _repro_run(k):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", _CLI, str(k)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_repro_run_exits_nonzero_when_a_request_fails():
    ok = _repro_run(10**9)
    assert ok.returncode == 0, ok.stderr
    failed = _repro_run(20)
    assert failed.returncode != 0
    assert "IndexError: injected at request 20" in failed.stderr
    assert "ψ=" not in failed.stdout
