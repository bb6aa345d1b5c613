package bufferdb

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"bufferdb/internal/bench"
)

// joinGoldenSF is large enough that every pinned query returns rows.
const joinGoldenSF = 0.01

// TestJoinResultsMatchGolden pins the result of every join-heavy query
// under every join method, engine, refinement setting and degree of
// parallelism to a hash in testdata/join_results.golden, so a change to
// how joins build their output rows cannot change any answer. A cell the
// planner rejects pins its error instead.
func TestJoinResultsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("180 query runs at SF 0.01")
	}
	db, err := OpenTPCH(joinGoldenSF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	queries := []struct{ name, sql string }{
		{"paper-q3", bench.Query3},
		{"tpch-q3", bench.TPCHQ3},
		{"tpch-q5", bench.TPCHQ5},
		{"tpch-q10", bench.TPCHQ10},
		{"tpch-q12", bench.TPCHQ12},
	}
	var b strings.Builder
	for _, q := range queries {
		for _, join := range []string{"hash", "merge", "nestloop"} {
			for _, eng := range []Engine{EngineVolcano, EngineVec, EnginePush} {
				for _, refine := range []bool{true, false} {
					for _, par := range []int{1, 4} {
						opts := []QueryOption{WithForceJoin(join), WithEngine(eng), WithParallelism(par), WithoutReuse()}
						if !refine {
							opts = append(opts, WithoutRefinement())
						}
						fmt.Fprintf(&b, "%s %s %s refine=%t par=%d: %s\n",
							q.name, join, eng, refine, par, resultDigest(db.Query(context.Background(), q.sql, opts...)))
					}
				}
			}
		}
	}
	goldenCompare(t, "join_results", b.String())
}

// resultDigest renders a query outcome compactly: its row count and a hash
// of every row's exact rendering, or the planner's error.
func resultDigest(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	for _, row := range res.Rows {
		fmt.Fprintln(h, row...)
	}
	return fmt.Sprintf("%d rows %x", len(res.Rows), h.Sum(nil)[:8])
}
