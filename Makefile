# Developer entry points.  Everything assumes the in-repo layout
# (PYTHONPATH=src); no installation step is required.

PY ?= python
PYTHONPATH := src

.PHONY: test test-fast examples lint cov bench-smoke bench bench-batch-smoke bench-obs bench-obs-smoke bench-index bench-index-smoke serve-smoke bench-serve bench-serve-smoke

## test: full tier-1 suite (slow scaling/property tests included)
test:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest -x -q

## test-fast: developer loop — everything except tests marked `slow`
test-fast:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest -x -q -m "not slow"

## examples: run every examples/*.py script (five of the six assert
## their answers against brute force); stops at the first nonzero exit
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=$(PYTHONPATH) $(PY) "$$script" || exit 1; \
	done

## lint: mirrors the CI ruff step (requires ruff on PATH)
lint:
	ruff check src tests benchmarks

## cov: coverage-gated suite (requires pytest-cov: pip install ".[cov]").
## The floor ratchets up as the suite grows; CI enforces it.
cov:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest -x -q -m "not slow" \
		--cov=repro --cov-report=term-missing --cov-report=xml --cov-fail-under=80

## bench-smoke: perf-regression smoke (small sizes, verifies the
## fused-kernel invariant; does not overwrite BENCH_hotpath.json)
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_regress.py --smoke --out /tmp/BENCH_hotpath_smoke.json

## bench: full pinned workload matrix -> BENCH_hotpath.json
bench:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_regress.py

## bench-batch-smoke: batched-vs-serial equivalence smoke; refuses to
## pass if solve_many diverges from the serial path bit-for-bit
bench-batch-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_batch.py --smoke --out /tmp/BENCH_batch_smoke.json

## bench-index-smoke: build-once index amortization smoke; refuses to
## pass unless index, one-shot solve, and brute force agree on every
## query rectangle (values AND witnesses)
bench-index-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_index.py --smoke --out /tmp/BENCH_index_smoke.json

## bench-index: full amortization matrix (covers the n>=512, Q>=100
## acceptance point) -> BENCH_index.json
bench-index:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_index.py

## serve-smoke: the serving suites (virtual-clock state machine,
## real-asyncio concurrency) plus the served-vs-direct
## equivalence smoke of the query-service benchmark
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest -x -q tests/test_serve_service.py tests/test_serve_concurrency.py
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_serve.py --smoke --out /tmp/BENCH_serve_smoke.json

## bench-serve: full closed/open-loop serving matrix (covers the n=512
## fused-vs-unbatched acceptance point) -> BENCH_serve.json
bench-serve:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_serve.py

## bench-serve-smoke: just the benchmark's smoke matrix
bench-serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_serve.py --smoke --out /tmp/BENCH_serve_smoke.json

## bench-obs: observability overhead budget -> BENCH_obs.json
## (fails if disabled-tracer overhead >= 5%)
bench-obs:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_obs_overhead.py

## bench-obs-smoke: fast overhead check + a smoke Chrome trace artifact
bench-obs-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_obs_overhead.py --smoke \
		--out /tmp/BENCH_obs_smoke.json --trace-out /tmp/trace_smoke.json
