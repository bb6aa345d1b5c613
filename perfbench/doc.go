// Command perfbench is bufferdb's benchmark: one program that runs four
// named, seeded, closed-loop workloads against the system from outside,
// checks every result, and prints its metrics by name with their units.
//
// Run it from the root of a checkout (run.py builds it first):
//
//	python3 perfbench/run.py --workload olap-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable summary, including
// error_frac (failed over attempted), goes to standard error. With
// --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 a separate traced run reports the per-layer ones. --record
// appends the result to a file, and
//
//	python3 perfbench/run.py compare base.jsonl head.jsonl
//
// diffs two such files: one row per workload and end-to-end metric,
// judged improved, regressed, unresolved or same under BENCHMARK.json's
// bounds, then the per-layer medians side by side.
//
// # Workloads
//
// Every workload generates its ops from --seed alone, in blocks that hold
// each op kind in its exact share and are shuffled by the seed. The
// program sees only the generated SQL. All but paper-sim run TPC-H at
// SF 0.01. Every workload sets its system up five times per run; setup_s
// is the median and covers data generation or load, fleet boot, threshold
// calibration on every database and warm-up.
//
// olap-local: the in-process facade, one client, reuse off, Parallelism 1.
// Each block holds TPC-H Q1, Q3, Q5, Q10, Q12, the paper's Query 3 and Q6
// (one of six seeded parameter sets) on volcano, vec and push, each ad hoc
// and prepared: 1/7 per template, 1/3 per engine, 1/2 prepared. Planning
// and execution do nearly all the work; no wire, pager or cache runs.
// Checks: every result hashes like the conventional (unrefined) Volcano
// plan's, computed at set-up.
//
// serve-rw: two client connections over loopback to an in-process server
// on a persistent database in a fresh data directory (the heap outgrows
// the 4 MiB buffer pool), with the server result cache and the reuse
// cache on. Per 20 ops: 12 dashboard reads over tables no write touches
// (60%; each of six dashboards once ad hoc, answered by the result cache,
// and once prepared, answered through the statement and reuse caches), 4
// fresh-parameter analytic reads over lineitem (20%; they miss and scan
// through the pager), 1 partsupp export of 3000 rows (5%) and 3 INSERTs
// into orders or lineitem (15%; WAL fsync, epoch bumps that invalidate
// dependent cache entries).
// read_p50_ms falls in the cache-hit mode (70% of reads) and read_p95_ms
// in the miss mode (30%). Checks: dashboards hash like their set-up
// reference, exports return exactly their row count, and each INSERT's key
// reads back once on the same connection.
//
// scatter-3: a client with two connections to the coordinator's wire
// front-end (dist.NewServer) over three in-process shard servers, every
// slice on two of them. Per 10 ops: 2 Q1, 2 parameterized Q6 and 2 Q12
// (the co-located lineitem⋈orders join) scattered as partial aggregates
// (60%), 2 row-returning scan legs of about 4000 rows (20%) and 2
// replicated-only dimension queries (20%). Checks: every result equals an
// unsharded in-process database's over the same data, floats within 1e-9
// relative since merge order changes float sums, scan rows as a multiset;
// a traced run also requires zero failovers and rescatters.
//
// paper-sim: the paper's Query 1, its Query 3 under a hash join, TPC-H Q1
// and Q3, each as the conventional Volcano plan (conv), the refined one
// (buffered), and the vec and push compilations, on fresh simulated CPUs
// (bench.Runner.MeasureEngine), in whole seeded passes of 24 that run the
// Volcano pair twice and vec and push once, so the median execution falls
// inside the slow Volcano cluster rather than in the gap between the
// clusters. At SF 0.001 a run holds about 300 executions in about a dozen
// passes. Its latencies are simulator host time; its read_p95_ms is the
// median over the passes of each pass's 95th percentile. Checks: every variant's rows hash like conv's,
// every execution returns conv's row count and first row, a variant's
// simulated counts repeat exactly, and after the timed phase the facade's
// DB.Profile, on a database of its own, reproduces the conv and buffered
// counts and the number of buffers inserted.
//
// # Metrics
//
// End to end, every workload: setup_s; ops_per_s (completed ops per
// second); read_p50_ms and read_p95_ms (SELECT from call to last row);
// alloc_bytes_per_op (Go heap bytes allocated by the whole process over
// the timed phase, per op); heap_peak_mb (the largest heap a garbage
// collection found live during it);
// stream_rows_per_s (rows delivered per second of read time).
//
// Per layer, traced, and the end-to-end metric and workload each should
// move:
//
//	sql.plan_ms, plan.refine_ms,       spans on sql.PlanQuery, plan.Refine,
//	plan.compile_ms                    plan.Compile → read_p50_ms, olap-local;
//	                                   sql.plan_ms also on serve-rw's cache misses
//	volcano|vec|push.exec_ms           span on CallOpen + CallNext drain +
//	                                   CallClose → read_p50_ms, ops_per_s, olap-local
//	volcano|vec|push.alloc_bytes       heap allocated in that span
//	                                   → alloc_bytes_per_op, olap-local
//	bufferdb.residual_ms               facade latency − layer spans of the same
//	                                   op → read_p50_ms, olap-local
//	trace.span_gap_pct                 pooled (facade − spans)/facade, olap-local
//	trace.overhead_pct                 traced vs untraced wall of the same ops
//	core.calibrate_s                   first DB.Threshold per database → setup_s, all
//	plan.reuse_ms                      plan.ApplyReuse on the plan of each read
//	                                   that misses the result cache → read_p50_ms,
//	                                   serve-rw
//	reuse.*                            DB.ReuseStats deltas → read_p50/p95_ms, serve-rw
//	server.*                           bufferdbd_* counters → read_p50_ms,
//	                                   stream_rows_per_s, serve-rw
//	client.first_batch_ms, drain_ms    spans on client.Query to first row and the
//	                                   Rows.Next drain → stream_rows_per_s,
//	                                   serve-rw and scatter-3
//	pager.*                            DB.PagerStats and WAL byte deltas
//	                                   → read_p95_ms, write.p50_ms, serve-rw
//	write.p50_ms, write.p95_ms         INSERT latency, serve-rw
//	dist.*                             bufferdb_coord_* deltas → read_p50_ms, scatter-3
//	shard.exec_ms                      bufferdb_query_seconds on the shards
//	                                   → read_p50_ms, scatter-3
//	cpusim.<q>.<alt>.*                 MeasureEngine counters, exact
//	core.buffers_inserted.<q>          buffers the refinement inserted
//	cpusim.host_s_per_run              span on MeasureEngine → ops_per_s, paper-sim
//	sim.l1i_misses, sim.cycles         summed over buffered, vec and push
//	sim.improvement_pct                refined vs conventional simulated time
//	sim.muops_per_s                    simulated µops per host second
//
// A layer a workload never reaches reads 0. The traced olap-local run
// executes each op three times through the facade and three times through
// the same layer calls the facade makes, in the same order, alternating,
// with garbage collection held off, and compares the fastest of each.
// Traced runs write their spans (name, start, end, parent, op id) as JSON
// lines under the build directory when they end.
package main
