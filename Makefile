PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke smoke-dist bench-e2e-smoke bench-pairs reach docs-check check

test:
	$(PYTHON) -m pytest -q

smoke:
	rm -rf /tmp/repro_smoke_resume /tmp/repro_smoke_chunked \
	    /tmp/repro_smoke_chunked_link
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --resume-dir /tmp/repro_smoke_resume --stop-after 500 \
	    --out /tmp/repro_smoke_partial.json; test $$? -eq 3
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --resume-dir /tmp/repro_smoke_resume --out /tmp/repro_smoke.json
	# A 2-worker multiprocess grid must match the serial/resumed reference.
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --executor multiprocess --jobs 2 --out /tmp/repro_smoke_mp.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke.json /tmp/repro_smoke_mp.json
	# Kill a chunked long-stream run at a checkpoint, resume it, and check
	# the result matches an uninterrupted serial run.
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms nonuniform --events 1200 --sites 4 \
	    --eval-events 150 --checkpoints 4 --executor chunked \
	    --resume-dir /tmp/repro_smoke_chunked --stop-after 600 \
	    --out /tmp/repro_smoke_chunked_partial.json; test $$? -eq 3
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms nonuniform --events 1200 --sites 4 \
	    --eval-events 150 --checkpoints 4 --executor chunked \
	    --resume-dir /tmp/repro_smoke_chunked \
	    --out /tmp/repro_smoke_chunked.json
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms nonuniform --events 1200 --sites 4 \
	    --eval-events 150 --checkpoints 4 \
	    --out /tmp/repro_smoke_chunked_ref.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_chunked.json \
	    /tmp/repro_smoke_chunked_ref.json
	# The same cycle on LINK (724 variables), where the F-ordered draws
	# and the resumed stream state carry the most bytes.
	$(PYTHON) -m repro.experiments messages --network link \
	    --algorithms nonuniform --events 6000 --sites 10 \
	    --eval-events 100 --checkpoints 3 --executor chunked \
	    --resume-dir /tmp/repro_smoke_chunked_link --stop-after 2000 \
	    --out /tmp/repro_smoke_chunked_link_partial.json; test $$? -eq 3
	$(PYTHON) -m repro.experiments messages --network link \
	    --algorithms nonuniform --events 6000 --sites 10 \
	    --eval-events 100 --checkpoints 3 --executor chunked \
	    --resume-dir /tmp/repro_smoke_chunked_link \
	    --out /tmp/repro_smoke_chunked_link.json
	$(PYTHON) -m repro.experiments messages --network link \
	    --algorithms nonuniform --events 6000 --sites 10 \
	    --eval-events 100 --checkpoints 3 \
	    --out /tmp/repro_smoke_chunked_link_ref.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_chunked_link.json \
	    /tmp/repro_smoke_chunked_link_ref.json
	$(PYTHON) -m repro.experiments classify --features 6 --events 2000 \
	    --eval-events 300 --sites 4 --out /tmp/repro_smoke_classify.json
	$(PYTHON) -m repro.experiments separation --events-values 500,1000 \
	    --example-events 800 --eval-events 50 --sites 3 \
	    --out /tmp/repro_smoke_separation.json
	$(PYTHON) -m repro.experiments long-crossover --events-values 600,1200 \
	    --checkpoints 3 --sites 3 --eval-events 100 --jobs 2 \
	    --out /tmp/repro_smoke_long.json
	$(PYTHON) -m repro.experiments figures /tmp/repro_smoke_long.json
	$(PYTHON) -m repro.experiments figures /tmp/repro_smoke.json \
	    --view messages

# The distributed runtime's conformance contract, end to end on the CLI:
# a --runtime distributed grid (site workers over loopback TCP) must
# match the in-process reference byte-for-byte.
smoke-dist:
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --out /tmp/repro_smoke_dist_ref.json
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --runtime distributed --sites-procs 2 \
	    --out /tmp/repro_smoke_dist.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_dist.json \
	    /tmp/repro_smoke_dist_ref.json
	# Nested starts: each grid worker starts its own site workers.
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --runtime distributed --sites-procs 2 \
	    --executor multiprocess --jobs 2 \
	    --out /tmp/repro_smoke_dist_mp.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_dist_mp.json \
	    /tmp/repro_smoke_dist_ref.json

# The end-to-end benchmark (bench/, BENCHMARK.json) scaled to seconds,
# with every conformance check and the layer replay on: a src change
# that breaks one of its checks or tracer probes fails here, not in the
# next performance PR.
bench-e2e-smoke:
	$(PYTHON) -m pytest bench/ -q

# Alternating parent/change pairs of the end-to-end benchmark and the
# verdict on a performance claim (tools/bench_pairs.py).  A run takes
# ~25-30 s, so ten pairs take ~10 min per workload: not part of `check`
# or CI.  WORKLOAD takes one name or a comma-separated list.
#   make bench-pairs BASE=<rev> WORKLOAD=<name>[,<name>...] PAIRS=10 SEED_BASE=<n> [OUT=<json>]
PAIRS ?= 10
bench-pairs:
	@test -n "$(BASE)" && test -n "$(WORKLOAD)" && test -n "$(SEED_BASE)" \
	    || { echo "usage: make bench-pairs BASE=<rev> WORKLOAD=<name>" \
	        "PAIRS=10 SEED_BASE=<n> [OUT=<json>]" >&2; exit 2; }
	$(PYTHON) tools/bench_pairs.py $(BASE) --workload $(WORKLOAD) \
	    --pairs $(PAIRS) --seed-base $(SEED_BASE) $(if $(OUT),--out $(OUT))

# The functions under src/ that the user paths (the nine CLI
# subcommands, `smoke`, `smoke-dist` and the benchmark's tests) never
# enter, traced with a sys.setprofile hook in every process
# (tools/reach.py).  A minute or two traced: not part of `check` or CI.
reach:
	$(PYTHON) tools/reach.py

docs-check:
	$(PYTHON) tools/check_docs.py

check: test smoke smoke-dist bench-e2e-smoke docs-check
