package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet holds a result set's metric values by workload and metric name,
// one value per run, untraced and traced apart.
type runSet struct {
	order  []string
	plain  map[string]map[string][]float64
	traced map[string]map[string][]float64
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{plain: map[string]map[string][]float64{}, traced: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result == nil || !rec.Result.Correct {
			return nil, fmt.Errorf("%s: a %s run (seed %d) is not correct; compare only correct runs", path, rec.Workload, rec.Seed)
		}
		dst := rs.plain
		if rec.Trace {
			dst = rs.traced
		}
		if _, ok := rs.plain[rec.Workload]; !ok {
			rs.plain[rec.Workload] = map[string][]float64{}
			rs.traced[rec.Workload] = map[string][]float64{}
			rs.order = append(rs.order, rec.Workload)
		}
		for k, v := range rec.Result.Metrics {
			dst[rec.Workload][k] = append(dst[rec.Workload][k], v.Value)
		}
	}
	return rs, sc.Err()
}

// verdict classifies head against base for one metric under its bound
// and returns the wider interquartile range of the two sides, relative to
// the base median. A side-wide win is improved; a spread wider than the
// bound is unresolved; a median worse by more than the bound is regressed;
// a median better by more than the spread, winning nine pairs in ten, is
// improved; anything else is the same.
func verdict(base, head []float64, higherBetter bool, bound float64) (v string, spread float64) {
	mb, mh := median(base), median(head)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	worse := sign * (mh - mb) / math.Abs(mb)
	iqr := func(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }
	spread = math.Max(iqr(base), iqr(head)) / math.Abs(mb)
	// better reports whether a reads better than b.
	better := func(a, b float64) bool { return sign*(a-b) < 0 }
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	switch {
	case allBetter:
		return "improved", spread
	case spread > bound:
		return "unresolved", spread
	case worse > bound:
		return "regressed", spread
	case -worse > spread && float64(wins) >= 0.9*float64(pairs):
		return "improved", spread
	}
	return "same", spread
}

// compareMain diffs two result sets written with -record: one row per
// workload and end-to-end metric, judged against BENCHMARK.json's bounds,
// then the per-layer medians of the traced runs side by side.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRunSet(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRunSet(fs.Arg(1))
	if err != nil {
		return err
	}
	return writeComparison(os.Stdout, spec, base, head)
}

func writeComparison(w io.Writer, spec benchSpec, base, head *runSet) error {
	fmt.Fprintf(w, "%-11s %-20s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "verdict")
	for _, wl := range base.order {
		for _, d := range spec.EndToEnd {
			b, h := base.plain[wl][d.Name], head.plain[wl][d.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, spread := verdict(b, h, d.Better == "higher", d.Bound)
			fmt.Fprintf(w, "%-11s %-20s %12.5g %12.5g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, d.Name, median(b), median(h), 100*(median(h)/median(b)-1), 100*spread, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(w, "\nper-layer medians of the traced runs (change = head/base - 1)\n")
	for _, wl := range base.order {
		for _, d := range layerMetrics {
			b, h := base.traced[wl][d.name], head.traced[wl][d.name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			mb, mh := median(b), median(h)
			if mb == 0 && mh == 0 {
				continue
			}
			change := "n/a"
			if mb != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mh/mb-1))
			}
			fmt.Fprintf(w, "%-11s %-36s %12.5g %12.5g %8s %s\n", wl, d.name, mb, mh, change, d.unit)
		}
	}
	return nil
}
