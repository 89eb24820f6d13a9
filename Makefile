# Convenience targets for the reproduction.

PYTHON ?= python

# The package runs from the checkout: no target needs `make install`.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-full test-log bench bench-micro bench-log bench-paper \
        figures figures-quick examples coverage clean profile \
        lint serve loadgen top soak sanitize reach

# Coverage floor enforced by `make coverage` and the CI test job.
COV_MIN ?= 70

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Fast edit-loop lane: skips the multi-second @pytest.mark.slow
# scenario runs.  CI (and `make test-full`) always runs everything.
test:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-full:
	$(PYTHON) -m pytest tests/

# Project invariants (tests/analysis) always run; ruff/mypy run when
# installed (the pinned dev container ships neither) and their
# failures still fail the target.
lint:
	@tracked=$$(git ls-files | grep -E '(^|/)__pycache__/|\.py[cod]$$' || true); \
	if [ -n "$$tracked" ]; then \
		echo "compiled artifacts tracked in git:"; echo "$$tracked"; exit 1; \
	fi
	$(PYTHON) -m pytest tests/analysis -q
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests || exit 1; \
	else echo "ruff not installed; skipping (CI runs it)"; fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro || exit 1; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

test-log:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The repo benchmark (BENCHMARK.json + bench/README.md): every workload,
# every metric, output checks on.  The only basis for performance claims.
bench:
	$(PYTHON) bench/run.py

# pytest-benchmark micro/meso benches (paper figures, kernels).
bench-micro:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-log:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-paper:
	REPRO_PAPER_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

profile:
	$(PYTHON) -m repro profile run --rate 100 --horizon 20 --cprofile

# Serving plane (docs/serving.md): a resident grid behind HTTP, and the
# closed-loop load generator that drives it.  Override knobs like
# `make serve SERVE_ARGS="--scenario churn --port 9000"`.
serve:
	$(PYTHON) -m repro serve $(SERVE_ARGS)

loadgen:
	$(PYTHON) -m repro loadgen $(LOADGEN_ARGS)

# Live operator view of a running server (docs/observability.md):
# windowed rates, SLO burn, worst traces.  `make top TOP_ARGS="--port 9000"`.
top:
	$(PYTHON) -m repro top $(TOP_ARGS)

# Sustained-load soak with RSS/latency drift detection against a running
# server; `make soak SOAK_ARGS="--duration 60 --rate 50"`.
soak:
	$(PYTHON) -m repro loadgen --soak $(SOAK_ARGS)

# The runtime determinism contract (docs/static-analysis.md): same-seed
# runs, plain and under the CI chaos plan, must export byte-identical
# draw/write ledgers, and arming the sanitizer must cost < 10% wall with
# telemetry unchanged.
sanitize:
	@tmp=$$(mktemp -d /tmp/sanitize.XXXXXX); \
	trap 'rm -rf $$tmp' EXIT; \
	set -e; \
	$(PYTHON) -m repro run --rate 100 --horizon 10 \
		--churn 25 --seed 0 --sanitize $$tmp/a.jsonl >/dev/null; \
	$(PYTHON) -m repro run --rate 100 --horizon 10 \
		--churn 25 --seed 0 --sanitize $$tmp/b.jsonl >/dev/null; \
	$(PYTHON) -m repro sanitize compare $$tmp/a.jsonl $$tmp/b.jsonl; \
	for run in fa fb; do \
		$(PYTHON) -m repro run --rate 100 --horizon 20 --churn 25 --seed 0 \
			--faults examples/plans/ci-chaos.json \
			--sanitize $$tmp/$$run.jsonl >/dev/null; \
	done; \
	$(PYTHON) -m repro sanitize compare $$tmp/fa.jsonl $$tmp/fb.jsonl; \
	$(PYTHON) -m repro sanitize overhead --rate 100 \
		--horizon 20 --seed 0 --repeat 3

# Reachability audit (scripts/reach.py): which src/repro definitions a
# production entry point runs and which only tests or benches reach.
# Not part of `make test`: tier-1 under its profile hook takes ~15 min.
reach:
	$(PYTHON) scripts/reach.py

figures:
	$(PYTHON) examples/paper_figures.py

figures-quick:
	$(PYTHON) examples/paper_figures.py --quick

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex || exit 1; done

coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
			--cov-fail-under=$(COV_MIN) || exit 1; \
	else \
		echo "pytest-cov not installed; running plain test suite"; \
		$(PYTHON) -m pytest tests/; \
	fi

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
