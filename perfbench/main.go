package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// scaleFactor is the TPC-H scale every workload but paper-sim runs at; the
// tests shrink it.
var scaleFactor = 0.01

// setupReps is how many times a run sets its system up; setup_s is the
// median and the last set-up serves the timed phase.
const setupReps = 5

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them, untraced.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"alloc_bytes_per_op", "B"},
	{"heap_peak_mb", "MiB"},
	{"stream_rows_per_s", "rows/s"},
}

// layerMetrics are the traced run's per-layer metrics. Every workload
// reports all of them; a layer a workload never reaches reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sql.plan_ms", "ms"},
		{"plan.refine_ms", "ms"},
		{"plan.compile_ms", "ms"},
		{"plan.reuse_ms", "ms"},
		{"core.calibrate_s", "s"},
		{"volcano.exec_ms", "ms"},
		{"vec.exec_ms", "ms"},
		{"push.exec_ms", "ms"},
		{"volcano.alloc_bytes", "B"},
		{"vec.alloc_bytes", "B"},
		{"push.alloc_bytes", "B"},
		{"bufferdb.residual_ms", "ms"},
		{"trace.span_gap_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"reuse.hit_ratio", "ratio"},
		{"reuse.invalidations_per_write", "count"},
		{"reuse.evictions", "count"},
		{"reuse.bytes", "B"},
		{"server.result_cache_hit_ratio", "ratio"},
		{"server.stmt_cache_hit_ratio", "ratio"},
		{"server.bytes_sent_per_read", "B"},
		{"client.first_batch_ms", "ms"},
		{"client.drain_ms", "ms"},
		{"pager.hit_ratio", "ratio"},
		{"pager.misses_per_read", "count"},
		{"pager.evictions_per_read", "count"},
		{"pager.writebacks", "count"},
		{"pager.wal_bytes_per_write", "B"},
		{"pager.wal_bytes_per_user_byte", "ratio"},
		{"write.p50_ms", "ms"},
		{"write.p95_ms", "ms"},
		{"dist.shard_first_row_ms", "ms"},
		{"dist.shard_stream_ms", "ms"},
		{"dist.merge_close_ms", "ms"},
		{"dist.legs_per_read", "count"},
		{"dist.failovers", "count"},
		{"dist.rescatters", "count"},
		{"shard.exec_ms", "ms"},
		{"cpusim.host_s_per_run", "s"},
		{"sim.l1i_misses", "count"},
		{"sim.cycles", "count"},
		{"sim.improvement_pct", "%"},
		{"sim.muops_per_s", "1/s"},
	}
	for _, q := range simQueries {
		for _, a := range simAlts {
			for _, c := range []string{"l1i_misses", "cycles", "mispredicts"} {
				defs = append(defs, metricDef{"cpusim." + q.name + "." + a + "." + c, "count"})
			}
		}
	}
	for _, q := range simQueries {
		defs = append(defs, metricDef{"core.buffers_inserted." + q.name, "count"})
	}
	return defs
}()

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	tally   *tally
	metrics map[string]float64 // end-to-end, or per-layer when traced
	broken  []string           // failed run-level checks; any makes the run incorrect
	notes   []string           // extra lines for the stderr summary
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"olap-local", runOlap},
	{"serve-rw", runServe},
	{"scatter-3", runScatter},
	{"paper-sim", runPaperSim},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for the op stream and its parameters")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	record := flag.String("record", "", "append the run's result as a JSON line to this file (for compare)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	workdir := os.Getenv("PERFBENCH_WORKDIR")
	if workdir == "" {
		workdir = filepath.Join(".bench_build", "run")
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, workdir: workdir}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res, err := report(w.name, cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := appendRecord(*record, w.name, cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// report checks that the outcome carries exactly the declared metrics,
// prints a readable summary to stderr and builds the result line.
func report(name string, cfg runConfig, out *outcome) (*result, error) {
	defs := endToEndMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	t := out.tally
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	res.Correct = t.failed == 0 && t.attempted > 0 && len(out.broken) == 0
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for k := range out.metrics {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", k)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%v: %d ops attempted, %d failed (error_frac %.4f), %d reads, %d writes\n",
		name, cfg.seed, cfg.trace, t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)), len(t.reads), len(t.writes))
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "  failure:", f)
	}
	for _, b := range out.broken {
		fmt.Fprintln(os.Stderr, "  check failed:", b)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	return res, nil
}

// record is one line of a compare input file.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path, name string, cfg runConfig, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(record{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Result: res}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it reaches.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	return m
}

// writeTrace stores a traced run's spans under the work directory.
func writeTrace(cfg runConfig, name string, tr *tracer) (string, error) {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", name, cfg.seed))
	return path, tr.write(path)
}
