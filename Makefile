PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint size examples trace-demo fuzz fuzz-smoke chaos-smoke \
	serve-smoke bench-e2e-quick epoch-layers round-layers build-layers \
	figures

## tier-1 test suite (the CI gate)
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## ruff lint gate; configured in pyproject.toml ([tool.ruff]).
## The container used for CI does not bake ruff in, so the target skips
## (successfully) when the binary is absent instead of failing the build.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "lint: ruff not installed; skipping (config in pyproject.toml)"; \
	fi

## source lines per src/repro package and the ten longest functions,
## overall and under runtime/ (report only, no options; the numbers
## ROADMAP re-anchors and simplicity issues quote)
size:
	@$(PYTHON) tools/size.py

## run every script under examples/ (callers of the public API, so a
## name they import that is gone fails here); exits 1 on the first
## script that exits non-zero
examples:
	@for script in examples/*.py; do \
		echo "$$script"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$script > /dev/null || exit 1; \
	done

## schedule fuzzing + differential conformance (docs/conformance.md)
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli fuzz --seeds 50 \
		--artifact-dir fuzz-artifacts

## the CI fuzz gate: small graphs, 20 seeds, plus the 90-cell
## differential grid; one JSON artifact per cell in fuzz-artifacts/
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli fuzz --seeds 20 \
		--smoke --artifact-dir fuzz-artifacts
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli fuzz --grid differential \
		--graph grid:6x6 -m 3 --quiet --artifact-dir fuzz-artifacts

## the CI respawn gate: the 32-cell chaos grid, {threaded,multiprocess} x
## {AAP,BSP,SSP,Hsync} x {1,2 crashes} x {generic,vectorized}; every cell must
## absorb its crashes in place (rung 1 of the degradation ladder; see
## docs/fault_tolerance.md);
## one JSON artifact per cell in chaos-out/
chaos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli fuzz --grid chaos \
		--artifact-dir chaos-out

## the end-to-end benchmark at smoke size (all four workloads, both
## passes, < 30 s) plus its self-tests; numbers from --quick are for
## plumbing, not for comparison (benchmarks/e2e/README.md)
bench-e2e-quick:
	$(PYTHON) benchmarks/e2e/run.py --seed 1 --quick
	$(PYTHON) -m pytest benchmarks/e2e -q

## the CI serving gate: short mixed update/query workload through the
## resident service; fails on any staleness-contract violation or if
## the drained service diverges from full recomputation
## (docs/serving.md)
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_serve.py \
		--graph powerlaw:300 --queries 300 --batches 12 \
		--out BENCH_serve_smoke.json

## where one epoch apply of the service spends its time, layer by
## layer, at two graph sizes (docs/performance.md ledger entry 4): a row
## that grows with the graph is an O(fragment) step; exits 1 if a block
## of reads within their bound writes an event or asks admission
epoch-layers:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/epoch_layers.py

## where one round of the multiprocess SSSP workload (sssp-grid-mp) spends
## its time: kernel and waves per round on the sequential schedule, the
## hand-off between the workers, the stop-to-reports tail and Assemble
## (docs/performance.md ledger entry 29), then start, finish, worker CPU
## and minor faults of a cold and a warm run on the worker pool (entry
## 30); exits 1 if a multiprocess answer differs from the sequential
## reference
round-layers:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/round_layers.py

## where a cold build (partition + compact + engine: the benchmark's
## setup_s) spends its time, layer by layer, on the four workload graphs
## at quick and full size, vectorized and generic engine
## (docs/performance.md ledger entry 6), plus what one more, untimed
## build retains (tracemalloc); exits 1 if a vectorized build made a
## per-node container, a dict-graph node order, an owner dict, a
## directed CSR's in-rows or the input graph's dicts, an undirected CSR
## view holds separate in-rows, a build of these integer-id graphs
## iterated Graph.edges() or a generated graph's edge pass took 1 ms
build-layers:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/build_layers.py

## the CI figures gate: regenerate every paper table under benchmarks/out/
## twice, under two hash seeds, check the paper's shapes over the tables
## (the test_*_shape tests read only the files), and fail unless the
## tables are byte-identical to the committed ones (EXPERIMENTS.md)
figures:
	for seed in 0 1; do \
		PYTHONHASHSEED=$$seed PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
			benchmarks --ignore=benchmarks/e2e -q -p no:cacheprovider \
			--benchmark-disable || exit 1; \
		git diff --exit-code --stat benchmarks/out || exit 1; \
	done

## example observability run: straggler SSSP -> Chrome trace + audit
trace-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli trace \
		--algorithm sssp --graph grid:10x10 --straggler 4 \
		--out trace.json --jsonl events.jsonl --explain 0
	@echo "open trace.json in chrome://tracing or https://ui.perfetto.dev"
