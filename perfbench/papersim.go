package main

import (
	"fmt"
	"strings"
	"time"

	"bufferdb"
	"bufferdb/internal/bench"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/tpch"
)

// simScaleFactor is paper-sim's TPC-H scale: small enough that one pass of
// twenty-four simulated executions takes under two seconds of host time,
// so a run gathers about a dozen passes to take its latency medians over.
// The simulated counts scale about linearly with it.
const simScaleFactor = 0.001

// simCalibrationCards are the facade's calibration cardinalities.
var simCalibrationCards = []int{0, 16, 64, 256, 1024, 4096}

// simVariant is one query under one execution variant.
type simVariant struct {
	plan   *plan.Node
	engine plan.Engine
}

// simSystem is one set-up of paper-sim: generated data, a calibrated
// refinement threshold, and every query planned conventionally and
// refined.
type simSystem struct {
	runner   *bench.Runner
	variants map[string]simVariant // keyed "<query>.<alt>"
	buffers  map[string]int        // buffer operators the refinement inserted, per query
}

func setupSim() (*simSystem, float64, error) {
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: simScaleFactor})
	if err != nil {
		return nil, 0, err
	}
	cm := codemodel.NewCatalog()
	cpu := cpusim.DefaultConfig()
	t0 := time.Now()
	cal, err := core.CalibrateThreshold(cm, cpu, 4096, simCalibrationCards, 0)
	if err != nil {
		return nil, 0, err
	}
	calib := time.Since(t0).Seconds()
	r := &bench.Runner{Cfg: bench.Config{ScaleFactor: simScaleFactor}, DB: cat, CM: cm, CPUCfg: cpu, Threshold: cal.Threshold}
	s := &simSystem{runner: r, variants: map[string]simVariant{}, buffers: map[string]int{}}
	for _, q := range simQueries {
		opt := sql.Options{}
		if q.hash {
			opt.ForceJoin = sql.JoinHash
		}
		conv, err := r.Plan(q.sql, opt)
		if err != nil {
			return nil, 0, err
		}
		refined, err := r.Refine(conv)
		if err != nil {
			return nil, 0, err
		}
		s.buffers[q.name] = plan.CountKind(refined, plan.KindBuffer)
		s.variants[q.name+".conv"] = simVariant{conv, plan.EngineVolcano}
		s.variants[q.name+".buffered"] = simVariant{refined, plan.EngineVolcano}
		s.variants[q.name+".vec"] = simVariant{conv, plan.EngineVec}
		s.variants[q.name+".push"] = simVariant{conv, plan.EnginePush}
	}
	// Warm-up: one simulated execution assembles the code model's modules.
	if _, err := r.MeasureEngine("warm-up", s.variants["p1.push"].plan, plan.EnginePush); err != nil {
		return nil, 0, err
	}
	return s, calib, nil
}

// simReference is a query's result under the conventional plan.
type simReference struct {
	hash     uint64
	rows     int
	firstRow string
}

// references executes every variant without the simulator and checks
// that each one's rows hash like the conventional plan's.
func (s *simSystem) references() (map[string]simReference, error) {
	refs := map[string]simReference{}
	for _, q := range simQueries {
		for _, a := range simAlts {
			v := s.variants[q.name+"."+a]
			op, err := plan.Compile(v.plan, nil, v.engine)
			if err != nil {
				return nil, err
			}
			rows, err := exec.Run(&exec.Context{Catalog: s.runner.DB}, op)
			if err != nil {
				return nil, err
			}
			ref := simReference{hash: resultHash(storageRows(rows), true), rows: len(rows)}
			if len(rows) > 0 {
				ref.firstRow = rows[0].String()
			}
			if a == "conv" {
				refs[q.name] = ref
			} else if ref.hash != refs[q.name].hash {
				return nil, fmt.Errorf("%s under %s returns different rows than the conventional plan", q.name, a)
			}
		}
	}
	return refs, nil
}

func runPaperSim(cfg runConfig) (*outcome, error) {
	var sys *simSystem
	var setup, calib []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, c, err := setupSim()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		calib = append(calib, c)
		sys = s
	}
	refs, err := sys.references()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	t := &tally{}
	seen := map[string]*bench.Measurement{}
	var uops float64
	ops := newStream(cfg.seed, 0, simMix())
	passLen := len(simMix()(nil))
	var passes [][]float64 // read latencies in ms, per pass
	ph := beginPhase()
	deadline := time.Now().Add(cfg.seconds)
	// Whole passes only, so every run weighs the executions alike.
	for n := 0; n%passLen != 0 || time.Now().Before(deadline); n++ {
		if n%passLen == 0 {
			passes = append(passes, nil)
		}
		o := ops.next()
		v := sys.variants[o.tmpl]
		q, _, _ := strings.Cut(o.tmpl, ".")
		sp := tr.begin("cpusim.measure", n, -1)
		t0 := time.Now()
		m, err := sys.runner.MeasureEngine(o.tmpl, v.plan, v.engine)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			t.fail("%s: %v", o.tmpl, err)
			continue
		}
		ref := refs[q]
		if m.Rows != ref.rows || m.FirstRow != ref.firstRow {
			t.fail("%s: %d rows starting %q, conventional plan gives %d starting %q", o.tmpl, m.Rows, m.FirstRow, ref.rows, ref.firstRow)
			continue
		}
		if prev := seen[o.tmpl]; prev == nil {
			seen[o.tmpl] = m
		} else if prev.Counters != m.Counters || prev.Cycles != m.Cycles {
			t.fail("%s: simulated counts changed between repeats", o.tmpl)
			continue
		}
		uops += float64(m.Counters.Uops)
		t.read(d, m.Rows)
		passes[len(passes)-1] = append(passes[len(passes)-1], ms(d))
	}
	var e2e map[string]float64
	if !cfg.trace {
		e2e = ph.endToEnd(t, setup)
		// A whole run's 95th percentile rests on its fifteen or so slowest
		// executions, which one burst of load from other tenants of the
		// host can supply. Every pass runs the same executions, so each
		// pass's 95th percentile estimates the same latency, and their
		// median drops the passes such a burst slowed.
		e2e["read_p95_ms"] = passQuantile(passes, 0.95)
	} else {
		ph.heap.stop()
	}
	broken, err := sys.checkProfile(seen)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return &outcome{tally: t, metrics: e2e, broken: broken}, nil
	}
	m := zeroLayers()
	m["core.calibrate_s"] = median(calib)
	host := tr.byName("cpusim.measure")
	m["cpusim.host_s_per_run"] = mean(host) / 1000
	m["sim.muops_per_s"] = ratio(uops/1e6, sum(host)/1000)
	var convElapsed, bufElapsed float64
	for _, q := range simQueries {
		m["core.buffers_inserted."+q.name] = float64(sys.buffers[q.name])
		for _, a := range simAlts {
			x := seen[q.name+"."+a]
			if x == nil {
				return nil, fmt.Errorf("%s.%s never completed", q.name, a)
			}
			prefix := "cpusim." + q.name + "." + a + "."
			m[prefix+"l1i_misses"] = float64(x.Counters.L1IMisses)
			m[prefix+"cycles"] = x.Cycles.Total()
			m[prefix+"mispredicts"] = float64(x.Counters.Mispredicts)
			switch a {
			case "conv":
				convElapsed += x.ElapsedSec
			case "buffered":
				bufElapsed += x.ElapsedSec
			}
			if a != "conv" {
				m["sim.l1i_misses"] += float64(x.Counters.L1IMisses)
				m["sim.cycles"] += x.Cycles.Total()
			}
		}
	}
	m["sim.improvement_pct"] = 100 * (1 - ratio(bufElapsed, convElapsed))
	path, err := writeTrace(cfg, "paper-sim", tr)
	if err != nil {
		return nil, err
	}
	return &outcome{tally: t, metrics: m, broken: broken, notes: []string{"spans written to " + path}}, nil
}

// checkProfile runs every query through the facade's DB.Profile, which
// simulates the conventional and the refined plan on a database of its
// own, and lists where its counts differ from the timed phase's
// conventional and buffered measurements.
func (s *simSystem) checkProfile(seen map[string]*bench.Measurement) ([]string, error) {
	db, err := bufferdb.OpenTPCH(simScaleFactor, bufferdb.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var broken []string
	for _, q := range simQueries {
		var opts []bufferdb.QueryOption
		if q.hash {
			opts = append(opts, bufferdb.WithForceJoin("hash"))
		}
		prof, err := db.Profile(q.sql, opts...)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", q.name, err)
		}
		if prof.BuffersInserted != s.buffers[q.name] {
			broken = append(broken, fmt.Sprintf("%s: Profile inserted %d buffers, the benchmark's refinement %d",
				q.name, prof.BuffersInserted, s.buffers[q.name]))
		}
		for _, c := range []struct {
			alt string
			got bufferdb.RunStats
		}{{"conv", prof.Original}, {"buffered", prof.Buffered}} {
			ms := seen[q.name+"."+c.alt]
			if ms == nil {
				continue // the variant failed every time, which the tally reports
			}
			want := ms.Counters
			if c.got.Uops != want.Uops || c.got.L1IMisses != want.L1IMisses || c.got.Mispredicts != want.Mispredicts {
				broken = append(broken, fmt.Sprintf("%s.%s: Profile counts uops=%d l1i=%d mispredicts=%d, MeasureEngine %d %d %d",
					q.name, c.alt, c.got.Uops, c.got.L1IMisses, c.got.Mispredicts, want.Uops, want.L1IMisses, want.Mispredicts))
			}
		}
	}
	return broken, nil
}

// passQuantile is the median over passes of each pass's q-quantile.
func passQuantile(passes [][]float64, q float64) float64 {
	var qs []float64
	for _, p := range passes {
		if len(p) > 0 {
			qs = append(qs, quantile(p, q))
		}
	}
	return median(qs)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
