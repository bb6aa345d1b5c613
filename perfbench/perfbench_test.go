package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// streams builds each workload's op stream for a seed.
func streams(seed uint64) map[string]*stream {
	return map[string]*stream{
		"olap-local": newStream(seed, 0, olapMix(q6Pool(rand.New(rand.NewPCG(seed, 1)), olapQ6PoolSize))),
		"serve-rw":   newStream(seed, 0, serveMix(0.01, 0)),
		"scatter-3":  newStream(seed, 0, scatterMix(newScatterPools(rand.New(rand.NewPCG(seed, 1)), 0.01))),
		"paper-sim":  newStream(seed, 0, simMix()),
	}
}

func take(s *stream, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	a, b := streams(7), streams(7)
	for name := range a {
		if !reflect.DeepEqual(take(a[name], 500), take(b[name], 500)) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
	}
}

func TestDifferentSeedDifferentParameters(t *testing.T) {
	a, b := streams(7), streams(8)
	for name := range a {
		if reflect.DeepEqual(take(a[name], 500), take(b[name], 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
	sqlSet := func(ops []op) map[string]bool {
		m := map[string]bool{}
		for _, o := range ops {
			m[o.sql] = true
		}
		return m
	}
	for _, name := range []string{"olap-local", "serve-rw", "scatter-3"} {
		if reflect.DeepEqual(sqlSet(take(streams(7)[name], 500)), sqlSet(take(streams(8)[name], 500))) {
			t.Errorf("%s: seeds 7 and 8 drew the same parameters", name)
		}
	}
}

// share counts the fraction of ops matching pred.
func share(ops []op, pred func(op) bool) float64 {
	n := 0
	for _, o := range ops {
		if pred(o) {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}

func TestMixShares(t *testing.T) {
	const n = 10000
	check := func(name, what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s: %s share %.3f, want %.3f ± 0.02", name, what, got, want)
		}
	}
	s := streams(3)
	olap := take(s["olap-local"], n)
	for _, e := range olapEngines {
		check("olap-local", e, share(olap, func(o op) bool { return o.engine == e }), 1.0/3)
	}
	check("olap-local", "prepared", share(olap, func(o op) bool { return o.prepared }), 0.5)
	for _, tmpl := range []string{"q1", "q3", "q5", "q10", "q12", "paper-q3", "q6"} {
		check("olap-local", tmpl, share(olap, func(o op) bool { return o.tmpl == tmpl }), 1.0/7)
	}

	serve := take(s["serve-rw"], n)
	check("serve-rw", "dashboard", share(serve, func(o op) bool { return strings.HasPrefix(o.tmpl, "dash-") }), 0.60)
	check("serve-rw", "fresh", share(serve, func(o op) bool { return strings.HasPrefix(o.tmpl, "fresh-") }), 0.20)
	check("serve-rw", "export", share(serve, func(o op) bool { return o.kind == opExport }), 0.05)
	check("serve-rw", "insert", share(serve, func(o op) bool { return o.kind == opWrite }), 0.15)
	check("serve-rw", "prepared", share(serve, func(o op) bool { return o.prepared }), 0.30)

	scatter := take(s["scatter-3"], n)
	check("scatter-3", "aggregate", share(scatter, func(o op) bool { return o.tmpl == "q1" || o.tmpl == "q6" || o.tmpl == "q12" }), 0.60)
	check("scatter-3", "scan", share(scatter, func(o op) bool { return o.kind == opExport }), 0.20)
	check("scatter-3", "dimension", share(scatter, func(o op) bool { return strings.HasPrefix(o.tmpl, "dim-") }), 0.20)

	sim := take(s["paper-sim"], 24*100)
	for _, q := range simQueries {
		for _, a := range simAlts {
			want := 1.0 / 24
			if a == "conv" || a == "buffered" {
				want = 2.0 / 24
			}
			check("paper-sim", q.name+"."+a, share(sim, func(o op) bool { return o.tmpl == q.name+"."+a }), want)
		}
	}
}

func TestInsertedKeysDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for lane := 0; lane < serveConns; lane++ {
		for _, o := range take(newStream(5, lane, serveMix(0.01, lane)), 2000) {
			if o.kind != opWrite {
				continue
			}
			if seen[o.key] {
				t.Fatalf("key %d inserted twice", o.key)
			}
			seen[o.key] = true
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		head         []float64
		higherBetter bool
		want         string
	}{
		{scale(1.0), false, "same"},
		{scale(1.2), false, "regressed"},
		{scale(1.2), true, "improved"},
		{scale(0.8), false, "improved"},
		{noisy, false, "unresolved"},
	} {
		if got, _ := verdict(base, c.head, c.higherBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, higherBetter=%v) = %s, want %s", c.head, c.higherBetter, got, c.want)
		}
	}
}

func TestSameRows(t *testing.T) {
	want := [][]any{{"a", 662172.9454999996}, {"b", int64(3)}}
	for _, c := range []struct {
		got     [][]any
		ordered bool
		same    bool
	}{
		{[][]any{{"a", 662172.9455000005}, {"b", int64(3)}}, true, true},
		{[][]any{{"b", int64(3)}, {"a", 662172.9455000005}}, false, true},
		{[][]any{{"b", int64(3)}, {"a", 662172.9455000005}}, true, false},
		{[][]any{{"a", 662172.95}, {"b", int64(3)}}, true, false},
		{[][]any{{"a", 662172.9454999996}, {"b", int64(4)}}, true, false},
		{[][]any{{"a", 662172.9454999996}}, true, false},
	} {
		if got := sameRows(c.got, want, c.ordered); got != c.same {
			t.Errorf("sameRows(%v, ordered=%v) = %v, want %v", c.got, c.ordered, got, c.same)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	tr := &tracer{}
	tr.record("op", 1, -1, t0, t0.Add(10*time.Millisecond))
	tr.record("a", 1, 0, t0, t0.Add(3*time.Millisecond))
	tr.record("b", 1, 0, t0.Add(3*time.Millisecond), t0.Add(7*time.Millisecond))
	if got := tr.byName("op"); len(got) != 1 || got[0] != 3 {
		t.Errorf("root self time %v ms, want 3", got)
	}
	if got := tr.byName("b"); len(got) != 1 || got[0] != 4 {
		t.Errorf("child self time %v ms, want 4", got)
	}
}

// TestPassQuantile checks that one slowed pass moves the per-pass median
// of the 95th percentile no more than an unaffected pass would.
func TestPassQuantile(t *testing.T) {
	pass := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 50}
	slow := []float64{10, 10, 10, 10, 10, 10, 10, 10, 400, 500}
	want := quantile(pass, 0.95)
	if got := passQuantile([][]float64{pass, slow, pass}, 0.95); got != want {
		t.Errorf("passQuantile = %v, want %v", got, want)
	}
	if got := quantile(append(append(append([]float64{}, pass...), slow...), pass...), 0.95); got <= want {
		t.Errorf("whole-run quantile %v should show the slowed pass", got)
	}
}

// TestSmoke runs every workload briefly at a tiny scale factor, untraced
// and traced, and checks that each reports every declared metric and
// passes its own result checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	old := scaleFactor
	scaleFactor = 0.002
	defer func() { scaleFactor = old }()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 11, seconds: time.Second, trace: traced, workdir: t.TempDir()}
			out, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			res, err := report(w.name, cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, traced,
					res.Correct, res.Attempted, res.Failed, out.tally.failures)
			}
			if !traced {
				for k, v := range res.Metrics {
					if v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, k)
					}
				}
			}
		}
	}
}
