# Convenience targets for the Riptide reproduction.

PYTHON ?= python

.PHONY: install test test-output hot-path agent background-plane forensics cold-start reach lint typecheck bench bench-figs bench-fast examples clean

install:
	pip install -e . --no-build-isolation

# --durations: the slowest-tests list ROADMAP item 5(a) tracks, on every run.
test:
	$(PYTHON) -m pytest tests/ --durations=15

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Inner loop for a change to tcp/, net/ or the kernel (< 20 s): behaviour
# pinned byte for byte (packet-path golden), the lossless slow-start
# oracle, the frames-per-packet ceiling, the link/fabric tests (the
# link-stream order oracle among them), the host tests (demux, resets,
# reboot), the close matrix (it pins leftover events), the recovery
# matrix (loss recovery against its RFCs, ACK by ACK; run it as a script
# to print each cell's walk), the kernel tests, the cyclic-garbage census
# (the run loop keeps the collector off, so a new cycle on the hot path
# fails it by name), the bytes-per-trunk-direction ceiling, the
# bytes-per-idle-pooled-connection ceiling, the RTT estimator and RTO
# timer tests, and the lint rules (SIM001 guards writes to the clock).
hot-path:
	PYTHONPATH=src $(PYTHON) -m pytest tests/tcp/test_packet_path_golden.py \
		tests/tcp/test_slowstart_oracle.py tests/tcp/test_hot_path_frames.py tests/net \
		tests/linux tests/tcp/test_close_matrix.py tests/tcp/test_recovery_matrix.py tests/sim \
		tests/experiments/test_gc_census.py tests/cdn/test_fabric_footprint.py \
		tests/tcp/test_connection_footprint.py tests/tcp/test_rto.py \
		tests/tcp/test_rto_timer.py tests/analysis/test_lint_rules.py

# Inner loop for a change to core/ or policy/ (~15 s): Algorithm 1 as an
# executable spec, checked against every agent tick of the shipped studies
# and against scripted adversarial ss rows (run it as a script to print
# the ticks checked per study), the core and policy tests (the kernel-mode
# agent, the guard, the grouping reference), the resilience tests (retry
# ladders, crash and restart), and the chaos-report and hybrid-scale cells
# of the study golden.
agent:
	PYTHONPATH=src $(PYTHON) -m pytest tests/core/test_algorithm1_spec.py tests/core \
		tests/policy tests/faults/test_resilience.py \
		"tests/experiments/test_study_golden.py::test_chaos_reports_match_golden" \
		"tests/experiments/test_study_golden.py::test_hybrid_scale_matches_golden"

# Inner loop for a change to the background plane — sim/fluid.py,
# cdn/fluidtraffic.py, linux/ss_tool.py, linux/route.py, core/agent.py
# (~5 s): the five-pass cohort oracle, the keyword ss-row and per-row
# grouping references, the entry-window cache against an engine that
# resolves every tick, the ss tool and route-table tests (the version the
# cache watches), the frames-per-row / per-cohort-step ceiling, the
# shared-step exactness test, the lint rules (SIM001 guards every field a
# cohort's state id names), and the 34-PoP run_scale cell of the study
# golden, also under 3.12's compensated sum.
background-plane:
	PYTHONPATH=src $(PYTHON) -m pytest tests/sim/test_fluid.py \
		tests/cdn/test_fluidtraffic.py tests/core/test_agent.py \
		tests/linux/test_tools.py tests/linux/test_route.py \
		tests/cdn/test_background_plane_frames.py \
		tests/cdn/test_fluid_sharing.py tests/analysis/test_lint_rules.py \
		"tests/experiments/test_study_golden.py::test_hybrid_scale_matches_golden" \
		"tests/experiments/test_study_golden.py::test_hybrid_scale_matches_golden_under_compensated_sum"

# Inner loop for a change to the forensic plane — obs/ stores and records,
# analysis/export.py, the metrics/flows/report verbs (< 15 s): every
# exporter held `==` against the whole-payload encoding, the bytes-live-
# per-byte-written ceiling, the store tests, the bytes-per-record ceiling,
# the three verbs' CLI cases, and the chaos-report cell of the study golden.
forensics:
	PYTHONPATH=src $(PYTHON) -m pytest tests/analysis/test_export.py \
		tests/analysis/test_export_working_set.py tests/obs/test_record_footprint.py tests/obs \
		"tests/experiments/test_study_golden.py::test_chaos_reports_match_golden"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_cli.py -k "metrics or flows or report"

# What a process pays before it simulates anything (< 5 s): the import
# hygiene tests (stdlib only, a serial run loads neither the fork pool nor
# the experiment registry, a lower layer loads no upper one, package
# `__init__`s re-export nothing but `repro.obs`'s eight bench names, and the
# reachability invariants: every module reached, every function and method
# named, every dataclass field and every defaulted parameter set by a
# shipped entry point, each with callees resolved before names count (an
# unresolved call still matches by name), every CLI option used outside the
# tests, and the ceiling on methods `dataclasses` generates for the bench
# import set; each in its own file under tests/hygiene/, collected by
# tests/test_cli.py), the generated-method and class counts, then the 15
# largest cumulative rows of `python -X importtime -c "import repro.cli"`
# in us.
cold-start:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_cli.py -k TestImportHygiene
	PYTHONPATH=src $(PYTHON) -m tests.hygiene.generated_methods
	PYTHONPATH=src $(PYTHON) -X importtime -c "import repro.cli" 2>&1 \
		| sort -t'|' -k2 -n -r | head -15

# Line-level reachability (minutes, not in tier-1): every shipped command
# -- each CLI verb and option, every registry experiment under --fast, the
# examples, benchmarks/ and bench's workloads -- under a line collector;
# fails on a function whose never-run lines have no entry in
# tests/hygiene/census.py, or more than its entry allows, and on a stale
# entry.
reach:
	PYTHONPATH=src $(PYTHON) tests/hygiene/census.py

# Generic style (ruff) plus the codebase-specific determinism /
# observability rules (`repro lint`, see docs/ARCHITECTURE.md).
lint:
	ruff check src/
	PYTHONPATH=src $(PYTHON) -m repro lint src/

typecheck:
	$(PYTHON) -m mypy

# The repo benchmark (bench/README.md): four workloads, host time per
# simulated MB plus a per-layer table; a full run appends
# bench/history.jsonl.
bench:
	python3 bench/run.py

# Paper figure/table regeneration: each module runs its figure once,
# prints the paper's rows and asserts the shape (nothing is timed).
bench-figs:
	$(PYTHON) -m pytest benchmarks/ -s

# Model-backed artifacts only (seconds instead of minutes).
bench-fast:
	$(PYTHON) -m pytest benchmarks/test_fig02_filesizes.py \
		benchmarks/test_fig03_rtt_cdf.py benchmarks/test_fig04_gain.py \
		benchmarks/test_fig05_rtts.py benchmarks/test_fig06_model_times.py \
		benchmarks/test_table2_pops.py -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/prefix_granularity.py
	$(PYTHON) examples/operations_playbook.py
	$(PYTHON) examples/parameter_tuning.py
	$(PYTHON) examples/probe_study.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
