# Convenience targets for the multi-mode co-synthesis reproduction.

PYTHON ?= python

# Every target runs from a bare checkout: the sources come first on the
# import path, ahead of any PYTHONPATH the caller set.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast lint typecheck bench bench-fast bench-smoke tables examples verify clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Static lint over the sources and tests.  ruff is pinned in the
# `dev` optional-dependency group; environments without it (e.g. the
# hermetic test container) skip the check instead of failing.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check src tests; \
	else \
	    echo "ruff not installed (pip install -e '.[dev]'); skipping lint"; \
	fi

# Static type check.  mypy is pinned in the `dev` optional-dependency
# group; environments without it skip the check instead of failing.
# Scope: the strictly annotated subsystems ([tool.mypy] in
# pyproject.toml) — currently the dvs, engine, eval and synthesis
# packages.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
	    mypy --config-file pyproject.toml; \
	else \
	    echo "mypy not installed (pip install -e '.[dev]'); skipping typecheck"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick look: motivational figures + micro benches only.
bench-fast:
	$(PYTHON) -m pytest benchmarks/test_fig2_fig3.py \
	    benchmarks/test_micro.py --benchmark-only

# Evaluation-engine smoke benchmark: verifies the engine and its pool
# stay bit-identical to the seed path (tests/oracles) and fails on a
# >20% speedup regression against the committed baseline at jobs=4;
# then the PV-DVS kernel microbench (gradient and uniform bit-identity
# gates against the seed reference); then the Tables 1–3 mini-campaign
# on one worker and on every usable CPU (fails unless every job's
# result is identical).  All reports go to the ignored benchmarks/out/,
# so a smoke run leaves the tree clean.
bench-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick --jobs 4 \
	    --check benchmarks/results/bench_engine_quick_baseline.json \
	    --out benchmarks/out/bench_engine_quick.json
	$(PYTHON) benchmarks/bench_dvs.py --quick \
	    --out benchmarks/out/bench_dvs_quick.json
	$(PYTHON) benchmarks/bench_campaign.py --quick \
	    --out benchmarks/out/bench_campaign_quick.json

# The full pre-merge gate: lint + typecheck (when available), tier-1
# test suite, the end-to-end benchmark's contract tests (every name
# its layer tracer wraps must still exist) and the engine smoke
# benchmark (bit-identity + performance regression check).
verify: lint typecheck
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m pytest benchmarks/e2e -q
	$(PYTHON) benchmarks/bench_engine.py --quick \
	    --check benchmarks/results/bench_engine_quick_baseline.json \
	    --out benchmarks/out/bench_engine_quick.json

tables:
	$(PYTHON) -m repro.cli table1 --runs 5
	$(PYTHON) -m repro.cli table2 --runs 2
	$(PYTHON) -m repro.cli table3 --runs 2

examples:
	$(PYTHON) examples/motivational_example.py
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/dvs_hardware_cores.py
	$(PYTHON) examples/simulation_validation.py
	$(PYTHON) examples/persist_simulate_battery.py
	$(PYTHON) examples/explore_area_tradeoff.py
	$(PYTHON) examples/campaign_resume.py
	$(PYTHON) examples/smartphone_case_study.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
