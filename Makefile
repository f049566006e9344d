# Convenience targets for the sdf-lifetime reproduction.

PYTHON ?= python

.PHONY: install test check check-docs serve-smoke bench-pytest bench-full report examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Tier-1 suite, the golden output ledger with the kernel loaded, under
# REPRO_NATIVE=0 and in a fresh interpreter (tier-1 runs the first of
# these legs), and the differential checking harness
# (25 random graphs cycling through the acyclic/broadcast/cyclic
# families, every cross-layer oracle, fault-injection self-test
# included).
check:
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) scripts/golden.py
	PYTHONPATH=src $(PYTHON) -m repro check --trials 25 --inject \
		--families acyclic,broadcast,cyclic

# Documentation gate: every intra-repo markdown link must resolve and
# every ```console fence's repro invocation must parse against the
# real CLI (argparse introspection — phantom flags fail the build).
check-docs:
	$(PYTHON) scripts/check_docs.py

# End-to-end service smoke test, two phases: in-process server (CD-DAT
# cold miss -> disk hit -> memory hit, bit-identical, with /stats
# shard_counters showing 1 compile, 1 disk hit, 1 memory hit;
# oversized/truncated/stalled bodies -> 413/400/408, clean SIGTERM
# drain, trace in serve_trace.json) and a --workers 2 compile farm
# (same three submits and tier split, worker SIGKILL -> supervisor
# respawn -> /healthz stays ok, farm /batch miss -> hit bit-identical
# with a poisoned document isolated per item, live resize 2 -> 4 -> 2
# with /healthz green, merged worker trace in serve_farm_trace.json).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py --trace serve_trace.json

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro report -o REPORT.md

examples:
	for script in examples/*.py; do $(PYTHON) $$script > /dev/null || exit 1; done
	@echo "all examples ran cleanly"

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
