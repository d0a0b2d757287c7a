PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke smoke-dist smoke-net bench-e2e-smoke docs-check check

test:
	$(PYTHON) -m pytest -q

smoke:
	rm -rf /tmp/repro_smoke_resume /tmp/repro_smoke_chunked
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
# a --runtime distributed grid must match the in-process reference.
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

# The same contract over the TCP transport: a --transport tcp grid must
# match the in-process reference byte-for-byte.
smoke-net:
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --out /tmp/repro_smoke_net_ref.json
	$(PYTHON) -m repro.experiments messages --network alarm \
	    --algorithms exact,nonuniform --events 1000 --sites 5 \
	    --eval-events 200 --checkpoints 2 \
	    --runtime distributed --sites-procs 2 --transport tcp \
	    --out /tmp/repro_smoke_net.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_net.json \
	    /tmp/repro_smoke_net_ref.json

# The end-to-end benchmark (bench/, BENCHMARK.json) scaled to seconds,
# with every conformance check and the layer replay on: a src change
# that breaks one of its checks or tracer probes fails here, not in the
# next performance PR.
bench-e2e-smoke:
	$(PYTHON) -m pytest bench/ -q

docs-check:
	$(PYTHON) tools/check_docs.py

check: test smoke smoke-dist smoke-net bench-e2e-smoke docs-check
