PYTHON ?= python
export PYTHONPATH := src

SMOKES := smoke-server smoke-multiproc smoke-streaming smoke-trace

.PHONY: test test-fast bench plan-digests exec-digests serve serve-multiproc $(SMOKES) docs-check api-surface examples batch fuzz clean

## Tier-1 verification: the full unit/property/integration/benchmark suite.
test:
	$(PYTHON) -m pytest -x -q

## Fast path: everything except the slow soak tests (what CI's test job runs).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Performance micro-benchmarks only (interning speedup, overheads, ...).
bench:
	$(PYTHON) -m pytest benchmarks -q

## Verify every pinned program still plans to the bytes recorded in
## tests/golden/plan_digests.json, cold and warm (the gate a "same plans,
## less time" change is reviewed against; CI also runs it under seed 1).
plan-digests:
	PYTHONHASHSEED=0 $(PYTHON) tools/plan_digests.py --check

## Verify every pinned execute (91 paper loops on thread, 32 mix programs
## on all five backends, the quick kernel matrix) still yields the
## ExecutionReport recorded in tests/golden/exec_digests.json, every
## field but wall_s, under two hash seeds (the gate a "same reports, less
## time" change to the emitter, the machine, the executor or a backend is
## reviewed against; `tools/exec_digests.py --lowered` hashes the generated
## code itself).
exec-digests:
	PYTHONHASHSEED=0 $(PYTHON) tools/exec_digests.py --check
	PYTHONHASHSEED=1 $(PYTHON) tools/exec_digests.py --check

## Serve the analyze/execute protocol on TCP port 7070 (Ctrl-C for a
## graceful shutdown that drains in-flight requests).
serve:
	$(PYTHON) -m repro.evaluation serve --port 7070 --workers 4

## Serve via the multi-process front tier: 4 supervised backend
## processes, digest routing, hot-shard replication (see docs/SERVER.md).
serve-multiproc:
	$(PYTHON) -m repro.evaluation serve --port 7070 --topology multiproc --backends 4

## The serving smoke scenarios CI runs (tools/smoke.py): serve on an
## ephemeral port, drive it (load / chaos kill / v6 stream / v7 traces),
## SIGINT, and require a zero exit and the "shut down cleanly" line.
$(SMOKES): smoke-%:
	$(PYTHON) tools/smoke.py $*

## Verify README/ARCHITECTURE links and module-map paths resolve.
docs-check:
	$(PYTHON) tools/check_doc_links.py

## Verify repro.api.__all__ matches the committed docs/api_surface.txt
## and docs/API.md's type table matches the declared message fields.
api-surface:
	$(PYTHON) tools/check_api_surface.py

## Run every example script (facade smoke test).
examples:
	for example in examples/*.py; do echo "== $$example"; $(PYTHON) "$$example" || exit 1; done

## Analyze the whole benchmark suite concurrently (persistent cache).
batch:
	$(PYTHON) -m repro.evaluation batch

## Differential fuzzing: 500 seeds, parallel, cached per seed.
fuzz:
	$(PYTHON) -m repro.evaluation fuzz --seeds 500

clean:
	rm -rf .repro-cache .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
