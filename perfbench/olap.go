package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bufferdb"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// olapSpanGapLimit is how far, as a share of the facade's summed latency,
// the summed layer spans of the same ops may sit from it before the traced
// run warns that its spans do not account for the facade's time. The
// check pools all templates and only warns: the layer path reads its own
// copy of the data, and two identical in-process databases already differ
// by up to 8% on one template and a few percent pooled on a shared
// two-core host.
const olapSpanGapLimit = 0.05

type stmtKey struct{ sql, engine string }

// olapSystem is one set-up of olap-local: the in-process facade with every
// statement of the run prepared on every engine.
type olapSystem struct {
	db    *bufferdb.DB
	stmts map[stmtKey]*bufferdb.Stmt
}

// olapTexts lists every distinct statement one run issues.
func olapTexts(pool []string) []string {
	var out []string
	for _, t := range olapTemplates {
		out = append(out, t.sql)
	}
	return append(out, pool...)
}

// setupOlap opens the database, calibrates its threshold, prepares every
// statement on every engine and runs each template once per engine. It
// returns the calibration time separately.
func setupOlap(texts []string) (*olapSystem, float64, error) {
	db, err := bufferdb.OpenTPCH(scaleFactor, bufferdb.Options{Parallelism: 1})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if _, err := db.Threshold(); err != nil {
		return nil, 0, err
	}
	calib := time.Since(t0).Seconds()
	sys := &olapSystem{db: db, stmts: map[stmtKey]*bufferdb.Stmt{}}
	for _, e := range olapEngines {
		eng, err := bufferdb.ParseEngine(e)
		if err != nil {
			return nil, 0, err
		}
		for _, q := range texts {
			st, err := db.Prepare(q, bufferdb.WithEngine(eng))
			if err != nil {
				return nil, 0, fmt.Errorf("prepare on %s: %w", e, err)
			}
			sys.stmts[stmtKey{q, e}] = st
		}
		for _, q := range texts[:len(olapTemplates)+1] {
			if _, err := db.Query(context.Background(), q, bufferdb.WithEngine(eng)); err != nil {
				return nil, 0, fmt.Errorf("warm-up on %s: %w", e, err)
			}
		}
	}
	return sys, calib, nil
}

// query runs one op through the facade.
func (s *olapSystem) query(ctx context.Context, o op) (*bufferdb.Result, error) {
	if o.prepared {
		return s.stmts[stmtKey{o.sql, o.engine}].Query(ctx)
	}
	return s.db.Query(ctx, o.sql, bufferdb.WithEngine(bufferdb.Engine(o.engine)))
}

// olapReferences hashes every statement's result under the conventional
// (unrefined) Volcano plan.
func olapReferences(db *bufferdb.DB, texts []string) (map[string]uint64, error) {
	refs := map[string]uint64{}
	for _, q := range texts {
		res, err := db.Query(context.Background(), q, bufferdb.WithEngine(bufferdb.EngineVolcano), bufferdb.WithoutRefinement())
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs[q] = resultHash(res.Rows, true)
	}
	return refs, nil
}

func runOlap(cfg runConfig) (*outcome, error) {
	pool := q6Pool(rand.New(rand.NewPCG(cfg.seed, 1)), olapQ6PoolSize)
	texts := olapTexts(pool)
	var sys *olapSystem
	var setup, calib []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, c, err := setupOlap(texts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		calib = append(calib, c)
		if sys != nil {
			sys.db.Close()
		}
		sys = s
	}
	defer sys.db.Close()
	refs, err := olapReferences(sys.db, texts)
	if err != nil {
		return nil, err
	}
	ops := newStream(cfg.seed, 0, olapMix(pool))
	if cfg.trace {
		return olapTraced(cfg, sys, texts, refs, ops, calib)
	}

	t := &tally{}
	ph := beginPhase()
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		o := ops.next()
		t0 := time.Now()
		res, err := sys.query(context.Background(), o)
		d := time.Since(t0)
		switch {
		case err != nil:
			t.fail("%s on %s: %v", o.tmpl, o.engine, err)
		case resultHash(res.Rows, o.ordered()) != refs[o.sql]:
			t.fail("%s on %s (prepared=%v): result differs from the conventional plan", o.tmpl, o.engine, o.prepared)
		default:
			t.read(d, len(res.Rows))
		}
	}
	return &outcome{tally: t, metrics: ph.endToEnd(t, setup)}, nil
}

// layerPath replays the facade's layer calls for one op from outside:
// parse and plan, refine, compile, then open, drain and close the operator
// tree, each under its own span.
type layerPath struct {
	cat       *storage.Catalog
	cm        *codemodel.Catalog
	threshold float64
	prepared  map[string]*plan.Node
}

func newLayerPath(db *bufferdb.DB, texts []string) (*layerPath, error) {
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor})
	if err != nil {
		return nil, err
	}
	th, err := db.Threshold()
	if err != nil {
		return nil, err
	}
	lp := &layerPath{cat: cat, cm: codemodel.NewCatalog(), threshold: th, prepared: map[string]*plan.Node{}}
	for _, q := range texts {
		p, err := lp.plan(nil, 0, -1, q)
		if err != nil {
			return nil, err
		}
		lp.prepared[q] = p
	}
	return lp, nil
}

// plan parses, plans and refines a statement as the facade does.
func (lp *layerPath) plan(tr *tracer, opID, parent int, q string) (*plan.Node, error) {
	sp := tr.begin("sql.plan", opID, parent)
	p, err := sql.PlanQuery(q, lp.cat, sql.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plan.refine", opID, parent)
	p, _, err = plan.Refine(p, lp.cm, plan.RefineOptions{CardinalityThreshold: lp.threshold})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return plan.Parallelize(p, 1), nil
}

// run executes one op; the root span covers the whole op.
func (lp *layerPath) run(tr *tracer, opID int, o op) ([]storage.Row, error) {
	root := tr.begin("op", opID, -1)
	defer tr.end(root)
	var p *plan.Node
	if o.prepared {
		p = plan.Clone(lp.prepared[o.sql])
	} else {
		var err error
		if p, err = lp.plan(tr, opID, root, o.sql); err != nil {
			return nil, err
		}
	}
	engine, err := plan.ParseEngine(o.engine)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("plan.compile", opID, root)
	opr, err := plan.Compile(p, nil, engine)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(o.engine+".exec", opID, root)
	a0 := heapAllocBytes()
	ectx := &exec.Context{Catalog: lp.cat, Ctx: context.Background()}
	var rows []storage.Row
	err = exec.CallOpen(ectx, opr)
	for err == nil {
		var row storage.Row
		row, err = exec.CallNext(ectx, opr)
		if row == nil {
			break
		}
		rows = append(rows, row)
	}
	if cerr := exec.CallClose(ectx, opr); err == nil {
		err = cerr
	}
	tr.endAlloc(sp, heapAllocBytes()-a0)
	return rows, err
}

// olapTraceReps is how many times the traced run executes each op on each
// path; the fastest execution of each side stands for the op, which keeps
// interference from outside the process out of the comparison.
const olapTraceReps = 3

// olapFacade runs one op through the facade, untraced but for a span
// recording its latency, and checks the result.
func olapFacade(tr *tracer, runID int, sys *olapSystem, o op, refs map[string]uint64) (float64, int, error) {
	t0 := time.Now()
	res, err := sys.query(context.Background(), o)
	d := time.Since(t0)
	tr.record("bufferdb.facade", runID, -1, t0, t0.Add(d))
	if err != nil {
		return 0, 0, fmt.Errorf("facade: %w", err)
	}
	if resultHash(res.Rows, o.ordered()) != refs[o.sql] {
		return 0, 0, fmt.Errorf("facade result differs from the conventional plan")
	}
	return ms(d), len(res.Rows), nil
}

// olapLayers runs one op through the traced layer path, checks the result
// and returns the op's wall time and the sum of its layer spans.
func olapLayers(tr *tracer, runID int, lp *layerPath, o op, refs map[string]uint64) (traced, spans float64, err error) {
	first := len(tr.spans)
	rows, err := lp.run(tr, runID, o)
	if err != nil {
		return 0, 0, fmt.Errorf("layer path: %w", err)
	}
	if resultHash(storageRows(rows), o.ordered()) != refs[o.sql] {
		return 0, 0, fmt.Errorf("layer-path result differs from the conventional plan")
	}
	for _, s := range tr.spans[first:] {
		if s.Parent < 0 {
			traced = ms(s.dur())
		} else {
			spans += ms(s.dur())
		}
	}
	return traced, spans, nil
}

// olapTraced runs every op through the facade, untraced, and through the
// traced layer path, alternating which goes first, so each op's span sum
// can be set against the facade latency of the same op.
func olapTraced(cfg runConfig, sys *olapSystem, texts []string, refs map[string]uint64, ops *stream, calib []float64) (*outcome, error) {
	lp, err := newLayerPath(sys.db, texts)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tr := &tracer{}
	t := &tally{}
	type pair struct {
		tmpl          string
		facade, spans float64 // ms
		traced        float64 // ms, root span wall
	}
	var pairs []pair
	deadline := time.Now().Add(cfg.seconds)
	for id := 0; time.Now().Before(deadline); id++ {
		o := ops.next()
		pr := pair{tmpl: o.tmpl, facade: math.Inf(1), spans: math.Inf(1), traced: math.Inf(1)}
		var rows int
		var failed error
		// Garbage collection stays off while an op's executions run, so a
		// collection cycle cannot land in one side of a pair only.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		for r := 0; r < olapTraceReps && failed == nil; r++ {
			runID := id*olapTraceReps + r
			var facade, traced, spans float64
			if (id+r)%2 == 0 {
				facade, rows, failed = olapFacade(tr, runID, sys, o, refs)
			}
			if failed == nil {
				traced, spans, failed = olapLayers(tr, runID, lp, o, refs)
			}
			if failed == nil && (id+r)%2 == 1 {
				facade, rows, failed = olapFacade(tr, runID, sys, o, refs)
			}
			pr.facade = math.Min(pr.facade, facade)
			pr.traced = math.Min(pr.traced, traced)
			pr.spans = math.Min(pr.spans, spans)
		}
		debug.SetGCPercent(gc)
		if failed != nil {
			t.fail("%s on %s (prepared=%v): %v", o.tmpl, o.engine, o.prepared, failed)
			continue
		}
		t.read(time.Duration(pr.facade*float64(time.Millisecond)), rows)
		pairs = append(pairs, pr)
	}

	m := zeroLayers()
	m["core.calibrate_s"] = median(calib)
	m["sql.plan_ms"] = mean(tr.byName("sql.plan"))
	m["plan.refine_ms"] = mean(tr.byName("plan.refine"))
	m["plan.compile_ms"] = mean(tr.byName("plan.compile"))
	for _, e := range olapEngines {
		m[e+".exec_ms"] = mean(tr.byName(e + ".exec"))
		m[e+".alloc_bytes"] = mean(tr.allocsByName(e + ".exec"))
	}
	var residual []float64
	var facadeSum, spanSum, tracedSum float64
	type sums struct{ facade, spans float64 }
	byTmpl := map[string]*sums{}
	for _, p := range pairs {
		residual = append(residual, p.facade-p.spans)
		facadeSum += p.facade
		spanSum += p.spans
		tracedSum += p.traced
		if byTmpl[p.tmpl] == nil {
			byTmpl[p.tmpl] = &sums{}
		}
		byTmpl[p.tmpl].facade += p.facade
		byTmpl[p.tmpl].spans += p.spans
	}
	m["bufferdb.residual_ms"] = median(residual)
	m["trace.overhead_pct"] = 100 * ratio(tracedSum-facadeSum, facadeSum)
	gap := ratio(facadeSum-spanSum, facadeSum)
	m["trace.span_gap_pct"] = 100 * gap
	out := &outcome{tally: t, metrics: m}
	if math.Abs(gap) > olapSpanGapLimit {
		out.notes = append(out.notes, fmt.Sprintf("warning: layer spans miss the facade latency by %.1f%%, beyond %.0f%%",
			100*gap, 100*olapSpanGapLimit))
	}
	for _, tmpl := range sortedKeys(byTmpl) {
		s := byTmpl[tmpl]
		out.notes = append(out.notes, fmt.Sprintf("span gap %-9s %+6.2f%%", tmpl, 100*ratio(s.facade-s.spans, s.facade)))
	}
	path, err := writeTrace(cfg, "olap-local", tr)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, "spans written to "+path)
	return out, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
