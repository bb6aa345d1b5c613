package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bufferdb/internal/storage"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapAllocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLiveBytes is the heap the last garbage collection found live.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap every few milliseconds until stopped and
// keeps the largest reading: the peak of what each collection found live,
// which unlike the occupied heap does not count garbage awaiting the next
// cycle.
type heapPeak struct {
	cancel context.CancelFunc
	done   chan struct{}
	peak   uint64
}

func startHeapPeak() *heapPeak {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapPeak{cancel: cancel, done: make(chan struct{}), peak: heapLiveBytes()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if b := heapLiveBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapPeak) stop() float64 {
	h.cancel()
	<-h.done
	if b := heapLiveBytes(); b > h.peak {
		h.peak = b
	}
	return float64(h.peak) / (1 << 20)
}

// tally accumulates a timed phase's outcome across client goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reads     []float64 // ms, SELECT call to last row
	writes    []float64 // ms, INSERT call to completion
	rows      int       // rows delivered by reads
	readTime  float64   // s, summed read latency
	failures  []string  // first few failure messages
}

func (t *tally) read(d time.Duration, rows int) {
	t.mu.Lock()
	t.attempted++
	t.reads = append(t.reads, ms(d))
	t.rows += rows
	t.readTime += d.Seconds()
	t.mu.Unlock()
}

func (t *tally) write(d time.Duration) {
	t.mu.Lock()
	t.attempted++
	t.writes = append(t.writes, ms(d))
	t.mu.Unlock()
}

// fail counts a failed, refused or wrong-result operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// phase brackets a timed phase: wall clock, process-wide allocation and
// heap peak.
type phase struct {
	start  time.Time
	alloc0 uint64
	heap   *heapPeak
}

func beginPhase() *phase {
	// Collect set-up leftovers so they do not count toward the heap peak.
	runtime.GC()
	return &phase{start: time.Now(), alloc0: heapAllocBytes(), heap: startHeapPeak()}
}

// endToEnd computes the end-to-end metrics of a finished phase. setup holds
// the wall time of each set-up repetition.
func (p *phase) endToEnd(t *tally, setup []float64) map[string]float64 {
	elapsed := time.Since(p.start).Seconds()
	alloc := heapAllocBytes() - p.alloc0
	peak := p.heap.stop()
	ops := float64(t.attempted - t.failed)
	return map[string]float64{
		"setup_s":            median(setup),
		"ops_per_s":          ops / elapsed,
		"read_p50_ms":        quantile(t.reads, 0.50),
		"read_p95_ms":        quantile(t.reads, 0.95),
		"alloc_bytes_per_op": ratio(float64(alloc), float64(t.attempted)),
		"heap_peak_mb":       peak,
		"stream_rows_per_s":  ratio(float64(t.rows), t.readTime),
	}
}

// canonCell renders one native result cell exactly.
func canonCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Time:
		return x.UTC().Format("2006-01-02")
	default:
		return fmt.Sprint(x)
	}
}

// nativeCell converts an engine value to the native form the facade and
// the wire client return, so both canonicalize identically.
func nativeCell(v storage.Value) any {
	switch v.Kind {
	case storage.TypeNull:
		return nil
	case storage.TypeBool:
		return v.Bool()
	case storage.TypeInt64:
		return v.I
	case storage.TypeFloat64:
		return v.F
	case storage.TypeString:
		return v.S
	case storage.TypeDate:
		return time.Unix(v.I*86400, 0).UTC()
	}
	return v.String()
}

// canonRows renders each row exactly, sorted unless row order is part of
// the result.
func canonRows(rows [][]any, ordered bool) []string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = canonCell(v)
		}
		lines[i] = strings.Join(cells, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return lines
}

// resultHash hashes a result's exact rows. ordered keeps row order
// significant; otherwise rows compare as a multiset.
func resultHash(rows [][]any, ordered bool) uint64 {
	h := fnv.New64a()
	for _, l := range canonRows(rows, ordered) {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// floatTolerance is the relative difference two float cells may show and
// still be equal: a sharded merge sums floats in another order.
const floatTolerance = 1e-9

// sameRows reports whether got matches want row for row, floats within
// floatTolerance. Unordered results are paired after sorting both sides
// by their exact rendering, which suits rows whose floats are stored
// values rather than sums.
func sameRows(got, want [][]any, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, g := range got[i] {
			gf, gok := g.(float64)
			wf, wok := want[i][j].(float64)
			switch {
			case gok && wok:
				if math.Abs(gf-wf) > floatTolerance*math.Max(math.Abs(gf), math.Abs(wf)) {
					return false
				}
			case canonCell(g) != canonCell(want[i][j]):
				return false
			}
		}
	}
	return true
}

// sortedRows orders rows by their exact rendering.
func sortedRows(rows [][]any) [][]any {
	keys := canonRows(rows, true)
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]any, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// storageRows converts engine rows to native rows.
func storageRows(rows []storage.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		n := make([]any, len(r))
		for j, v := range r {
			n[j] = nativeCell(v)
		}
		out[i] = n
	}
	return out
}
