# Developer entry points.  Everything runs from a clean checkout with
# only the baked-in python toolchain (numpy/scipy/pytest).
#
#   make test           tier-1 test suite + report smoke + queue chaos
#                       smoke + kernels smoke + profile smoke +
#                       conformance smoke + examples smoke + recipes
#                       smoke (CI gate)
#   make smoke          runner `list` + every experiment at tiny scale (JSON)
#   make recipes-smoke  every checked-in recipe at tiny scale on the queue
#                       backend (1 worker), byte-diffed against serial
#   make queue-smoke    chaos test: 2-worker queue sweep, one worker
#                       SIGKILLed mid-drain, result byte-diffed against
#                       serial; exercises `runner queue status` live
#   make report-smoke   two-seed recipe -> self-contained report.html,
#                       checked for well-formedness + aggregation
#   make kernels-smoke  tiny platform and analytic characterization, Fig 9
#                       feature F1, Fig 8 boundary search and ground-truth
#                       fields (tiny module; H0, M1, S0 bank 0), kernel
#                       paths diffed against their loop oracles (exit 1
#                       on any mismatch)
#   make profile-smoke  tiny sweep -> `runner profile`: every per-task
#                       profiling stamp complete and non-negative
#   make conformance-smoke
#                       tiny sweep per device generation (DDR4 x2,
#                       LPDDR4, DDR5), undefended and under every
#                       defense, with command logging on, each stream
#                       replayed against its generation's own JEDEC
#                       rulebook (zero violations); then a broken
#                       rulebook as negative control (must flag
#                       violations), a byte-diff of DDR4 `runner
#                       check-timing` against the pre-refactor golden,
#                       and each defended cell at HC_first 64 and 4096
#                       through record-and-replay, equal to its plain run
#   make examples-smoke every script in examples/ runs to a zero exit
#   make golden         regenerate every snapshot pytest pins (tests/golden/,
#                       the CLI reference in EXPERIMENTS.md)
#   make clean-cache    drop the on-disk orchestration result cache
#
# Distributed sweeps: `make worker` attaches one worker process to the
# default queue (`.repro_cache/queue`); start as many as you have
# cores/hosts, then submit with
# `python -m repro.experiments.runner recipe run <name> --backend queue`.

PYTHON ?= python
JOBS ?= 2
export PYTHONPATH := src

.PHONY: test smoke recipes-smoke queue-smoke report-smoke \
        kernels-smoke profile-smoke conformance-smoke \
        examples-smoke golden worker clean-cache

test:
	$(PYTHON) -m pytest -x -q
	$(MAKE) report-smoke
	$(MAKE) queue-smoke
	$(MAKE) kernels-smoke
	$(MAKE) profile-smoke
	$(MAKE) conformance-smoke
	$(MAKE) examples-smoke
	$(MAKE) recipes-smoke

report-smoke:
	$(PYTHON) scripts/report_smoke.py

queue-smoke:
	$(PYTHON) scripts/queue_smoke.py

kernels-smoke:
	$(PYTHON) scripts/kernels_smoke.py

profile-smoke:
	$(PYTHON) scripts/profile_smoke.py

conformance-smoke:
	$(PYTHON) scripts/conformance_smoke.py

examples-smoke:
	@for script in examples/*.py; do \
		echo "examples-smoke: $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done

smoke:
	$(PYTHON) -m repro.experiments.runner list
	$(PYTHON) -m repro.experiments.runner run \
		--rows-per-bank 512 --banks 1 --requests-per-core 800 \
		--jobs $(JOBS) --cache-dir .repro_cache/smoke \
		--format json --out .smoke-results --progress
	@echo "smoke artifacts in .smoke-results/"

recipes-smoke:
	$(PYTHON) scripts/recipes_smoke.py

worker:
	$(PYTHON) -m repro.experiments.runner worker --poll-interval 0.2

golden:
	$(PYTHON) -m pytest tests -q --update-golden

clean-cache:
	rm -rf .repro_cache
