# Convenience targets for the sealpaa-py reproduction.

PYTHON ?= python
SEED ?= 1
PERFBENCH_WORKLOADS = sweep-uniform explore-mixed serve-mixed

.PHONY: install test bench perfbench perfbench-trace examples all clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# End-to-end benchmark, run the way parent/change pairs are compared:
# one 20 s run per workload; the last line of each is the metrics JSON.
perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds 20 --trace 0 || exit 1; \
	done

# The same runs with per-layer tracing (the layer metrics of layers.py).
perfbench-trace:
	@for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds 20 --trace 1 || exit 1; \
	done

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex > /dev/null && echo OK || exit 1; \
	done

all: test bench examples

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
