PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke smoke-dist smoke-net bench bench-hyz bench-dist \
	bench-ingest bench-sampling bench-query bench-recovery bench-smoke \
	smoke-query smoke-recovery bench-baselines bench-e2e-smoke docs-check \
	check

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
	$(PYTHON) -m repro.experiments bench --events 2000 --sites 6 \
	    --repeats 1 --out /tmp/repro_smoke_bench.json
	$(PYTHON) -m repro.experiments bench-hyz --events 2000 --sites 6 \
	    --repeats 1 --out /tmp/repro_smoke_bench_hyz.json

# The distributed runtime's conformance contract, end to end on the CLI:
# a --runtime distributed grid must match the in-process reference, and
# the tiny bench-dist document (which asserts channel==distributed and
# runs one kill/recover cycle internally) must match the committed
# baseline with timing stripped.
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
	$(PYTHON) -m repro.experiments bench-dist --network alarm \
	    --algorithm nonuniform --eps 0.2 --site-values 4 --sites-procs 2 \
	    --events 1200 --chunk 300 --fault-events 600 \
	    --out /tmp/repro_smoke_dist_bench.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_dist_bench.json \
	    benchmarks/BENCH_dist_smoke.json

# The same contract over the TCP transport: a --transport tcp grid must
# match the in-process reference byte-for-byte, and the tiny
# bench-dist --transport tcp document (kill/recover cycle included)
# must match its committed baseline with timing stripped.
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
	$(PYTHON) -m repro.experiments bench-dist --network alarm \
	    --transport tcp \
	    --algorithm nonuniform --eps 0.2 --site-values 4 --sites-procs 2 \
	    --events 1200 --chunk 300 --fault-events 600 \
	    --out /tmp/repro_smoke_net_bench.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_smoke_net_bench.json \
	    benchmarks/BENCH_net_smoke.json

bench:
	$(PYTHON) -m repro.experiments bench --sites 30 --events 20000

bench-hyz:
	$(PYTHON) -m repro.experiments bench-hyz --sites 30 --events 20000

bench-dist:
	$(PYTHON) -m repro.experiments bench-dist --network alarm

bench-ingest:
	$(PYTHON) -m repro.experiments bench-ingest --network link \
	    --events 100000 --chunk 20000 --sites 10 --algorithm exact \
	    --encoders loop,sparse --repeats 2

bench-sampling:
	$(PYTHON) -m repro.experiments bench-sampling --network link \
	    --events 100000 --chunk 20000 --repeats 2

# Read-serving throughput on paper-scale LINK (conformance asserted
# against the live estimator before any timing).
bench-query:
	$(PYTHON) -m repro.experiments bench-query --network link \
	    --events 20000 --chunk 5000 --queries 500

# Coordinator durability: WAL overhead + one kill/recover cycle per
# transport, byte-identical recovery asserted before timing.
bench-recovery:
	$(PYTHON) -m repro.experiments bench-recovery --network alarm

# Regenerate the committed benchmark trajectory (paper-scale; minutes).
# Non-timing fields must reproduce exactly — compare_bench checks that.
bench-baselines:
	$(PYTHON) -m repro.experiments bench-ingest --network alarm \
	    --events 100000 --chunk 20000 --sites 10 --algorithm nonuniform \
	    --encoders loop,dense,sparse --repeats 2 \
	    --out benchmarks/BENCH_ingest_alarm.json
	$(PYTHON) -m repro.experiments bench-ingest --network link \
	    --events 100000 --chunk 20000 --sites 10 --algorithm exact \
	    --encoders loop,sparse --repeats 2 \
	    --out benchmarks/BENCH_ingest_link.json
	$(PYTHON) -m repro.experiments bench-ingest --network munin \
	    --events 100000 --chunk 20000 --sites 10 --algorithm exact \
	    --encoders loop,sparse --repeats 2 \
	    --out benchmarks/BENCH_ingest_munin.json
	$(PYTHON) -m repro.experiments bench-ingest --network link \
	    --events 100000 --chunk 20000 --sites 10 --algorithm nonuniform \
	    --counter-backend hyz --encoders loop,sparse --repeats 2 \
	    --out benchmarks/BENCH_ingest_link_nonuniform.json
	$(PYTHON) -m repro.experiments bench-ingest --network link \
	    --events 2000 --chunk 1000 --sites 5 --algorithm exact \
	    --encoders loop,sparse \
	    --out benchmarks/BENCH_ingest_smoke.json
	$(PYTHON) -m repro.experiments bench-sampling --network alarm \
	    --events 100000 --chunk 20000 --repeats 2 \
	    --out benchmarks/BENCH_sampling_alarm.json
	$(PYTHON) -m repro.experiments bench-sampling --network link \
	    --events 100000 --chunk 20000 --repeats 2 \
	    --out benchmarks/BENCH_sampling_link.json
	$(PYTHON) -m repro.experiments bench-sampling --network munin \
	    --events 100000 --chunk 20000 --repeats 2 \
	    --out benchmarks/BENCH_sampling_munin.json
	$(PYTHON) -m repro.experiments bench-sampling --network link \
	    --events 2000 --chunk 1000 --repeats 1 \
	    --out benchmarks/BENCH_sampling_smoke.json
	$(PYTHON) -m repro.experiments bench-dist --network alarm \
	    --out benchmarks/BENCH_dist_alarm.json
	$(PYTHON) -m repro.experiments bench-dist --network alarm \
	    --algorithm nonuniform --eps 0.2 --site-values 4 --sites-procs 2 \
	    --events 1200 --chunk 300 --fault-events 600 \
	    --out benchmarks/BENCH_dist_smoke.json
	$(PYTHON) -m repro.experiments bench-dist --network alarm \
	    --transport tcp --out benchmarks/BENCH_net_alarm.json
	$(PYTHON) -m repro.experiments bench-dist --network alarm \
	    --transport tcp \
	    --algorithm nonuniform --eps 0.2 --site-values 4 --sites-procs 2 \
	    --events 1200 --chunk 300 --fault-events 600 \
	    --out benchmarks/BENCH_net_smoke.json
	$(PYTHON) -m repro.experiments bench-query --network link \
	    --events 20000 --chunk 5000 --queries 500 \
	    --out benchmarks/BENCH_query_link.json
	$(PYTHON) -m repro.experiments bench-query --network alarm \
	    --events 2000 --chunk 500 --queries 300 \
	    --out benchmarks/BENCH_query_smoke.json
	$(PYTHON) -m repro.experiments bench-recovery --network alarm \
	    --out benchmarks/BENCH_recovery_alarm.json
	$(PYTHON) -m repro.experiments bench-recovery --network alarm \
	    --events 600 --chunk 100 --transports queue \
	    --out benchmarks/BENCH_recovery_smoke.json

# Tiny ingest + sampling benchmarks whose non-timing fields must match
# the committed baselines byte-for-byte (the encoder and sampler-engine
# determinism contracts).
bench-smoke:
	$(PYTHON) -m repro.experiments bench-ingest --network link \
	    --events 2000 --chunk 1000 --sites 5 --algorithm exact \
	    --encoders loop,sparse --out /tmp/repro_bench_smoke.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_bench_smoke.json \
	    benchmarks/BENCH_ingest_smoke.json
	$(PYTHON) -m repro.experiments bench-sampling --network link \
	    --events 2000 --chunk 1000 --repeats 1 \
	    --out /tmp/repro_bench_smoke_sampling.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_bench_smoke_sampling.json \
	    benchmarks/BENCH_sampling_smoke.json

# Tiny read-serving benchmark: served answers are asserted bit-identical
# to the live estimator before timing, and the document's non-timing
# fields (conformance counts, cache hit/miss/stale counts, refreshes)
# must match the committed baseline.
smoke-query:
	$(PYTHON) -m repro.experiments bench-query --network alarm \
	    --events 2000 --chunk 500 --queries 300 \
	    --out /tmp/repro_bench_smoke_query.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_bench_smoke_query.json \
	    benchmarks/BENCH_query_smoke.json

# Tiny coordinator-durability benchmark: the recovered session is
# asserted byte-identical internally, and the document's non-timing
# fields (WAL record/byte counts, checkpoints, replayed rounds) must
# match the committed baseline.
smoke-recovery:
	$(PYTHON) -m repro.experiments bench-recovery --network alarm \
	    --events 600 --chunk 100 --transports queue \
	    --out /tmp/repro_bench_smoke_recovery.json
	$(PYTHON) tools/compare_bench.py /tmp/repro_bench_smoke_recovery.json \
	    benchmarks/BENCH_recovery_smoke.json

# The end-to-end benchmark (bench/, BENCHMARK.json) scaled to seconds,
# with every conformance check and the layer replay on: a src change
# that breaks one of its checks or tracer probes fails here, not in the
# next performance PR.
bench-e2e-smoke:
	$(PYTHON) -m pytest bench/ -q

docs-check:
	$(PYTHON) tools/check_docs.py

check: test smoke smoke-dist smoke-net bench-smoke smoke-query \
	smoke-recovery bench-e2e-smoke docs-check
