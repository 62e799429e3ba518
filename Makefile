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

## per-stage profile of the full-scale (scale 1.0) sequential wild scan,
## one to two minutes on 2 CPUs; prints the stage table and rewrites the
## tracked PROFILE_wildscan.json
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.runner scan --full --profile
