package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/obsv"
	"bufferdb/internal/plan"
	"bufferdb/internal/reuse"
	"bufferdb/internal/server"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// serveConns is serve-rw's connection count: two closed-loop clients, one
// connection each, so an INSERT's read-back rides the same connection.
const serveConns = 2

// serveResultCacheBytes is the daemon's result-cache budget.
const serveResultCacheBytes = 16 << 20

// scrape reads every counter, gauge and histogram sum/count the program
// exports in its process-wide registry.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	_ = obsv.Default.WritePrometheus(&buf) // a bytes.Buffer never fails
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumMetric adds every series of a metric family, whatever its labels.
func sumMetric(m map[string]float64, base string) float64 {
	var s float64
	for k, v := range m {
		if k == base || strings.HasPrefix(k, base+"{") {
			s += v
		}
	}
	return s
}

// delta is a metric family's growth between two scrapes.
func delta(before, after map[string]float64, base string) float64 {
	return sumMetric(after, base) - sumMetric(before, base)
}

// serveSystem is one set-up of serve-rw: a persistent database in a fresh
// data directory behind an in-process server on loopback.
type serveSystem struct {
	dir  string
	db   *bufferdb.DB
	srv  *server.Server
	done chan error
	addr string
}

func setupServe(cfg runConfig, rep int) (*serveSystem, float64, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	db, err := bufferdb.OpenTPCH(scaleFactor, bufferdb.Options{DataDir: dir, ReuseCache: true})
	if err != nil {
		return nil, 0, err
	}
	s := &serveSystem{dir: dir, db: db}
	t0 := time.Now()
	if _, err := db.Threshold(); err != nil {
		s.close()
		return nil, 0, err
	}
	calib := time.Since(t0).Seconds()
	s.srv, err = server.New(server.Config{DB: db, ResultCacheBytes: serveResultCacheBytes})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.addr = l.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(l) }()

	// Warm-up: every dashboard ad hoc and prepared on every connection
	// (filling the result, statement and reuse caches), one of each fresh
	// read kind and one INSERT per table, from a lane the timed phase
	// never uses.
	err = s.warm(cfg.seed)
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, calib, nil
}

func (s *serveSystem) warm(seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 99))
	for c := 0; c < serveConns; c++ {
		cl, err := client.Dial(s.addr, client.Config{MaxConns: 1})
		if err != nil {
			return err
		}
		w := &serveWorker{cl: cl, stmts: map[string]*client.Stmt{}}
		var ops []op
		for _, d := range serveDashboards {
			ops = append(ops, op{tmpl: d.name, sql: d.sql}, op{tmpl: d.name, sql: d.sql, prepared: true})
		}
		if c == 0 {
			for kind := 0; kind < 3; kind++ {
				ops = append(ops, serveFresh(r, kind))
			}
			ops = append(ops,
				op{kind: opWrite, table: "orders", key: writeKeyBase - 1, sql: insertSQL("orders", writeKeyBase-1, r)},
				op{kind: opWrite, table: "lineitem", key: writeKeyBase - 1, sql: insertSQL("lineitem", writeKeyBase-1, r)})
		}
		for _, o := range ops {
			var err error
			if o.kind == opWrite {
				_, err = w.write(context.Background(), o)
			} else {
				_, _, err = w.read(context.Background(), nil, 0, o)
			}
			if err != nil {
				cl.Close()
				return err
			}
		}
		cl.Close()
	}
	return nil
}

func (s *serveSystem) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // teardown; a slow drain is cut by the timeout
		cancel()
		if s.done != nil {
			<-s.done
		}
	}
	_ = s.db.Close() // the directory is removed next
	_ = os.RemoveAll(s.dir)
}

// serveWorker is one closed-loop client with a single connection.
type serveWorker struct {
	cl    *client.Client
	stmts map[string]*client.Stmt
}

// read runs a SELECT and returns its rows. With a tracer it records the
// wait for the first batch and the drain as separate spans.
func (w *serveWorker) read(ctx context.Context, tr *tracer, opID int, o op) ([][]any, time.Duration, error) {
	t0 := time.Now()
	var rows *client.Rows
	var err error
	if o.prepared {
		st := w.stmts[o.sql]
		if st == nil {
			st = w.cl.Prepare(o.sql)
			w.stmts[o.sql] = st
		}
		rows, err = st.Query(ctx)
	} else {
		rows, err = w.cl.Query(ctx, o.sql)
	}
	if err != nil {
		return nil, 0, err
	}
	var out [][]any
	more := rows.Next()
	t1 := time.Now()
	for ; more; more = rows.Next() {
		out = append(out, append([]any(nil), rows.Row()...))
	}
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	t2 := time.Now()
	tr.record("client.first_batch", opID, -1, t0, t1)
	tr.record("client.drain", opID, -1, t1, t2)
	return out, t2.Sub(t0), err
}

// write runs an INSERT, then reads the new key back on the same
// connection. It returns the INSERT's latency.
func (w *serveWorker) write(ctx context.Context, o op) (time.Duration, error) {
	t0 := time.Now()
	res, err := w.cl.QueryAll(ctx, o.sql)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		return d, fmt.Errorf("INSERT INTO %s reported %v, want one row inserted", o.table, res.Rows)
	}
	back, err := w.cl.QueryAll(ctx, readBackSQL(o.table, o.key))
	if err != nil {
		return d, fmt.Errorf("read-back: %w", err)
	}
	if len(back.Rows) != 1 {
		return d, fmt.Errorf("read-back of %s key %d found %d rows, want 1", o.table, o.key, len(back.Rows))
	}
	return d, nil
}

// serveReferences hashes every dashboard's result before the first write.
func serveReferences(db *bufferdb.DB) (map[string]uint64, error) {
	refs := map[string]uint64{}
	for _, d := range serveDashboards {
		res, err := db.Query(context.Background(), d.sql, bufferdb.WithoutRefinement(), bufferdb.WithoutReuse())
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", d.name, err)
		}
		refs[d.sql] = resultHash(res.Rows, true)
	}
	return refs, nil
}

// userBytes is the encoded size of the rows an INSERT carries.
func userBytes(q string) (int, error) {
	stmt, err := sql.ParseInsert(q)
	if err != nil {
		return 0, err
	}
	_, rows, err := sql.AnalyzeInsert(tpch.SchemaCatalog(), stmt)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range rows {
		n += r.ByteSize()
	}
	return n, nil
}

// reuseProbe replays sql.PlanQuery and plan.ApplyReuse (fingerprint +
// cache lookup) for each read that misses the server's caches, against a
// benchmark-owned catalog and cache, since the server's own calls are out
// of the benchmark's reach.
type reuseProbe struct {
	cat   *storage.Catalog
	cache *reuse.Cache
}

func newReuseProbe() (*reuseProbe, error) {
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor})
	if err != nil {
		return nil, err
	}
	return &reuseProbe{cat: cat, cache: reuse.New(bufferdb.DefaultReuseMaxBytes, reuse.NewEpochs(), nil)}, nil
}

func (p *reuseProbe) run(tr *tracer, opID int, q string) error {
	sp := tr.begin("sql.plan", opID, -1)
	pl, err := sql.PlanQuery(q, p.cat, sql.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("plan.reuse", opID, -1)
	_, releases := plan.ApplyReuse(pl, p.cache)
	tr.end(sp)
	for _, rel := range releases {
		rel()
	}
	return nil
}

func runServe(cfg runConfig) (*outcome, error) {
	var sys *serveSystem
	var setup, calib []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, c, err := setupServe(cfg, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		calib = append(calib, c)
		sys = s
	}
	defer sys.close()
	refs, err := serveReferences(sys.db)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var probe *reuseProbe
	if cfg.trace {
		tr = &tracer{}
		if probe, err = newReuseProbe(); err != nil {
			return nil, err
		}
	}

	workers := make([]*serveWorker, serveConns)
	for i := range workers {
		cl, err := client.Dial(sys.addr, client.Config{MaxConns: 1})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		workers[i] = &serveWorker{cl: cl, stmts: map[string]*client.Stmt{}}
	}

	t := &tally{}
	var mu sync.Mutex // guards the counters below
	var selects, walUser int
	var opIDs int
	before, pagerBefore, reuseBefore := scrape(), sys.db.PagerStats(), sys.db.ReuseStats()
	ph := beginPhase()
	deadline := time.Now().Add(cfg.seconds)
	var wg sync.WaitGroup
	for lane, w := range workers {
		wg.Add(1)
		go func(lane int, w *serveWorker) {
			defer wg.Done()
			ops := newStream(cfg.seed, lane, serveMix(scaleFactor, lane))
			ctx := context.Background()
			for time.Now().Before(deadline) {
				o := ops.next()
				mu.Lock()
				opIDs++
				id := opIDs
				mu.Unlock()
				if o.kind == opWrite {
					n, err := userBytes(o.sql)
					var d time.Duration
					if err == nil {
						d, err = w.write(ctx, o)
					}
					mu.Lock()
					selects++ // the read-back
					if err == nil {
						walUser += n
					}
					mu.Unlock()
					if err != nil {
						t.fail("%s key %d: %v", o.tmpl, o.key, err)
						continue
					}
					t.write(d)
					continue
				}
				if probe != nil && !strings.HasPrefix(o.tmpl, "dash-") {
					if err := probe.run(tr, id, o.sql); err != nil {
						t.fail("%s: reuse probe: %v", o.tmpl, err)
						continue
					}
				}
				rows, d, err := w.read(ctx, tr, id, o)
				mu.Lock()
				selects++
				mu.Unlock()
				switch {
				case err != nil:
					t.fail("%s: %v", o.tmpl, err)
				case o.kind == opExport && len(rows) != o.rows:
					t.fail("%s: %d rows, want %d", o.tmpl, len(rows), o.rows)
				case refs[o.sql] != 0 && resultHash(rows, o.ordered()) != refs[o.sql]:
					t.fail("%s (prepared=%v): result differs from the set-up reference", o.tmpl, o.prepared)
				case refs[o.sql] == 0 && len(rows) == 0:
					t.fail("%s: an aggregate returned no rows", o.tmpl)
				default:
					t.read(d, len(rows))
				}
			}
		}(lane, w)
	}
	wg.Wait()
	if !cfg.trace {
		return &outcome{tally: t, metrics: ph.endToEnd(t, setup)}, nil
	}
	ph.heap.stop()
	after, pagerAfter, reuseAfter := scrape(), sys.db.PagerStats(), sys.db.ReuseStats()
	m := zeroLayers()
	writes := float64(len(t.writes))
	m["core.calibrate_s"] = median(calib)
	m["sql.plan_ms"] = mean(tr.byName("sql.plan"))
	m["plan.reuse_ms"] = mean(tr.byName("plan.reuse"))
	m["client.first_batch_ms"] = mean(tr.byName("client.first_batch"))
	m["client.drain_ms"] = mean(tr.byName("client.drain"))
	m["write.p50_ms"] = quantile(t.writes, 0.50)
	m["write.p95_ms"] = quantile(t.writes, 0.95)
	rh, rm := float64(reuseAfter.Hits-reuseBefore.Hits), float64(reuseAfter.Misses-reuseBefore.Misses)
	m["reuse.hit_ratio"] = ratio(rh, rh+rm)
	m["reuse.invalidations_per_write"] = ratio(float64(reuseAfter.Invalidations-reuseBefore.Invalidations), writes)
	m["reuse.evictions"] = float64(reuseAfter.Evictions - reuseBefore.Evictions)
	m["reuse.bytes"] = float64(reuseAfter.Bytes)
	for _, c := range []string{"result", "stmt"} {
		h := delta(before, after, "bufferdbd_"+c+"_cache_hits_total")
		mi := delta(before, after, "bufferdbd_"+c+"_cache_misses_total")
		m["server."+c+"_cache_hit_ratio"] = ratio(h, h+mi)
	}
	m["server.bytes_sent_per_read"] = ratio(delta(before, after, "bufferdbd_bytes_sent_total"), float64(selects))
	ph2, pm := float64(pagerAfter.Hits-pagerBefore.Hits), float64(pagerAfter.Misses-pagerBefore.Misses)
	m["pager.hit_ratio"] = ratio(ph2, ph2+pm)
	m["pager.misses_per_read"] = ratio(pm, float64(selects))
	m["pager.evictions_per_read"] = ratio(float64(pagerAfter.Evictions-pagerBefore.Evictions), float64(selects))
	m["pager.writebacks"] = float64(pagerAfter.Writebacks - pagerBefore.Writebacks)
	wal := delta(before, after, "bufferdb_pager_wal_bytes_total")
	m["pager.wal_bytes_per_write"] = ratio(wal, writes)
	m["pager.wal_bytes_per_user_byte"] = ratio(wal, float64(walUser))
	path, err := writeTrace(cfg, "serve-rw", tr)
	if err != nil {
		return nil, err
	}
	return &outcome{tally: t, metrics: m, notes: []string{"spans written to " + path}}, nil
}
