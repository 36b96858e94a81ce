# Developer entry points.  Everything assumes the in-repo layout
# (PYTHONPATH=src); no installation step is required.

PY ?= python
PYTHONPATH := src

.PHONY: test test-fast examples lint cov serve-smoke bench-obs bench-obs-smoke

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

## serve-smoke: the serving suites (virtual-clock state machine,
## real-asyncio concurrency, served-vs-direct bit-identity)
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest -x -q tests/test_serve_service.py tests/test_serve_concurrency.py

## bench-obs: observability overhead budget -> BENCH_obs.json
## (fails if disabled-tracer overhead >= 5%)
bench-obs:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_obs_overhead.py

## bench-obs-smoke: fast overhead check + a smoke Chrome trace artifact
bench-obs-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PY) benchmarks/bench_obs_overhead.py --smoke \
		--out /tmp/BENCH_obs_smoke.json --trace-out /tmp/trace_smoke.json
