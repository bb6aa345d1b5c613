package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/dist"
	"bufferdb/internal/server"
	"bufferdb/internal/shard"
)

// scatter-3's fleet shape: three shard nodes, each slice on two of them.
const (
	scatterNodes = 3
	scatterRF    = 2
	scatterConns = 2
)

// scatterSystem is one set-up of scatter-3: three in-process shard servers
// and the coordinator's wire front-end, all on loopback.
type scatterSystem struct {
	shards []*server.Server
	co     *dist.Coordinator
	front  *dist.Server
	addr   string
	wg     sync.WaitGroup // Serve goroutines
}

func (s *scatterSystem) serve(l net.Listener, serve func(net.Listener) error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = serve(l) // returns once Shutdown closes the listener
	}()
}

func setupScatter(pools scatterPools) (*scatterSystem, []float64, error) {
	s := &scatterSystem{}
	var calib []float64
	var addrs []string
	for node := 0; node < scatterNodes; node++ {
		dbs, err := bufferdb.OpenTPCHReplicas(scaleFactor, bufferdb.Options{ShardCount: scatterNodes},
			shard.Slices(node, scatterNodes, scatterRF))
		if err != nil {
			s.close()
			return nil, nil, err
		}
		for _, db := range dbs {
			t0 := time.Now()
			if _, err := db.Threshold(); err != nil {
				s.close()
				return nil, nil, err
			}
			calib = append(calib, time.Since(t0).Seconds())
		}
		srv, err := server.New(server.Config{DB: dbs[node], Slices: dbs})
		if err != nil {
			s.close()
			return nil, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.shards = append(s.shards, srv)
		s.serve(l, srv.Serve)
		addrs = append(addrs, l.Addr().String())
	}
	co, err := dist.Open(dist.Config{Shards: addrs, Replication: scatterRF})
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.co = co
	if s.front, err = dist.NewServer(dist.ServerConfig{Coordinator: co}); err != nil {
		s.close()
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.addr = l.Addr().String()
	s.serve(l, s.front.Serve)

	// Warm-up: every fixed template and one of each parameterized kind on
	// every connection.
	cl, err := client.Dial(s.addr, client.Config{MaxConns: scatterConns})
	if err != nil {
		s.close()
		return nil, nil, err
	}
	defer cl.Close()
	warm := []string{pools.q6[0], pools.scans[0]}
	for _, f := range scatterFixed {
		warm = append(warm, f.sql)
	}
	var wg sync.WaitGroup
	errs := make([]error, scatterConns)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, q := range warm {
				if _, err := cl.QueryAll(context.Background(), q); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, calib, nil
}

func (s *scatterSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.front != nil {
		_ = s.front.Shutdown(ctx) // teardown; a slow drain is cut by the timeout
	}
	if s.co != nil {
		_ = s.co.Close()
	}
	for _, srv := range s.shards {
		_ = srv.Shutdown(ctx)
	}
	s.wg.Wait()
}

// scatterReferences runs every statement on an unsharded in-process
// database over the same data.
func scatterReferences(pools scatterPools) (map[string][][]any, error) {
	db, err := bufferdb.OpenTPCH(scaleFactor, bufferdb.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	refs := map[string][][]any{}
	var texts []string
	for _, f := range scatterFixed {
		texts = append(texts, f.sql)
	}
	for _, q := range append(append(texts, pools.q6...), pools.scans...) {
		res, err := db.Query(context.Background(), q, bufferdb.WithoutRefinement())
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs[q] = res.Rows
	}
	return refs, nil
}

func runScatter(cfg runConfig) (*outcome, error) {
	pools := newScatterPools(rand.New(rand.NewPCG(cfg.seed, 1)), scaleFactor)
	var sys *scatterSystem
	var setup, calib []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, c, err := setupScatter(pools)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		calib = append(calib, c...)
		sys = s
	}
	defer sys.close()
	refs, err := scatterReferences(pools)
	if err != nil {
		return nil, err
	}
	cl, err := client.Dial(sys.addr, client.Config{MaxConns: scatterConns})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	t := &tally{}
	var mu sync.Mutex
	opIDs := 0
	before := scrape()
	ph := beginPhase()
	deadline := time.Now().Add(cfg.seconds)
	var wg sync.WaitGroup
	for lane := 0; lane < scatterConns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			w := &serveWorker{cl: cl}
			ops := newStream(cfg.seed, lane, scatterMix(pools))
			for time.Now().Before(deadline) {
				o := ops.next()
				mu.Lock()
				opIDs++
				id := opIDs
				mu.Unlock()
				rows, d, err := w.read(context.Background(), tr, id, o)
				switch {
				case err != nil:
					t.fail("%s: %v", o.tmpl, err)
				case !sameRows(rows, refs[o.sql], o.ordered()):
					t.fail("%s: result differs from the unsharded database", o.tmpl)
				default:
					t.read(d, len(rows))
				}
			}
		}(lane)
	}
	wg.Wait()
	if !cfg.trace {
		return &outcome{tally: t, metrics: ph.endToEnd(t, setup)}, nil
	}
	ph.heap.stop()
	after := scrape()
	m := zeroLayers()
	reads := float64(len(t.reads))
	m["core.calibrate_s"] = median(calib)
	m["client.first_batch_ms"] = mean(tr.byName("client.first_batch"))
	m["client.drain_ms"] = mean(tr.byName("client.drain"))
	histMS := func(base string) float64 {
		return 1000 * ratio(delta(before, after, base+"_sum"), delta(before, after, base+"_count"))
	}
	m["dist.shard_first_row_ms"] = histMS("bufferdb_coord_shard_first_row_seconds")
	m["dist.shard_stream_ms"] = histMS("bufferdb_coord_shard_stream_seconds")
	m["dist.merge_close_ms"] = histMS("bufferdb_coord_merge_close_seconds")
	m["dist.legs_per_read"] = ratio(delta(before, after, "bufferdb_coord_shard_scans_total"), reads)
	m["dist.failovers"] = delta(before, after, "bufferdb_coord_failovers_total")
	m["dist.rescatters"] = delta(before, after, "bufferdb_coord_rescatters_total")
	m["shard.exec_ms"] = histMS("bufferdb_query_seconds")
	out := &outcome{tally: t, metrics: m}
	if m["dist.failovers"] != 0 || m["dist.rescatters"] != 0 {
		out.broken = append(out.broken, "a healthy fleet failed over or rescattered")
	}
	path, err := writeTrace(cfg, "scatter-3", tr)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, "spans written to "+path)
	return out, nil
}
