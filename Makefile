PYTHON ?= python

.PHONY: install test bench bench-round bench-gate profile size examples results clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-round:
	python3 benchmarks/roundbench/run.py --seed 2015

bench-gate:
	PYTHONPATH=src $(PYTHON) -m repro.cli ablate --out fresh.json
	$(PYTHON) benchmarks/gate.py --fresh fresh.json --threshold-pct 10

# Where a round goes: `make profile WORKLOAD=fleet-stream ARGS=--layers`
WORKLOAD ?= fleet-stream
profile:
	python3 tools/profile_round.py $(WORKLOAD) $(ARGS)

# Line total of src/**/*.py, the number ROADMAP's size aim is stated in.
size:
	@find src -name '*.py' -exec cat {} + | wc -l

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/traffic_fleet.py
	$(PYTHON) examples/suffix_knn_search.py
	$(PYTHON) examples/uncertainty_monitoring.py
	$(PYTHON) examples/custom_data.py
	$(PYTHON) examples/prediction_service.py

results:
	$(PYTHON) -m repro.cli run-all --preset small --out-dir results/

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
