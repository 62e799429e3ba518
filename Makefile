PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench profile

## tier-1 test suite (what CI gates on)
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## opt-in benchmarks/: the full-scale Table V contract (a few minutes on
## 2 CPUs) and the timing budgets, which arm with REPRO_BENCH_STRICT=1
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

## per-stage profile of the batch wild scan at a moderate scale; prints
## the stage table and writes PROFILE_wildscan.json
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.runner scan --scale 0.1 --profile
