# Convenience targets for the guest-blockchain reproduction.

PYTHON ?= python

# Operational targets of `python -m repro.experiments` (see its --help):
# every scenario CI runs on every push, plus the profiler.  Each make
# target is the CLI target of the same name.
SCENARIOS := throughput-smoke chaos-smoke accountability-smoke \
	topology-smoke state-smoke wallclock-smoke replay-audit profile-soak

.PHONY: install test lint bench figures examples all $(SCENARIOS)

install:
	pip install -e . && pip install pytest pytest-benchmark hypothesis

test:
	$(PYTHON) -m pytest tests/

# Style/correctness lint (install with: pip install ruff).
lint:
	ruff check src/ tests/ benchmarks/ examples/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Print every reproduced table/figure to the terminal (~2 min).
figures:
	$(PYTHON) -m repro.experiments

examples:
	for script in examples/*.py; do $(PYTHON) $$script; done

$(SCENARIOS):
	PYTHONPATH=src $(PYTHON) -m repro.experiments $@

all: lint test bench figures
