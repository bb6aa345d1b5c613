package main

import (
	"fmt"
	"math/rand/v2"

	"bufferdb/internal/bench"
)

// opKind classifies an operation for latency accounting.
type opKind int

const (
	opRead   opKind = iota // SELECT returning a small result
	opExport               // SELECT returning thousands of rows, in no set order
	opWrite                // INSERT, followed by a read-back of the new key
)

// op is one generated operation. The benchmark draws every op from a
// seeded stream before handing its SQL to the system.
type op struct {
	tmpl     string // template name; per-template statistics group by it
	sql      string
	kind     opKind
	engine   string // olap-local: volcano, vec or push
	prepared bool   // run through a prepared statement
	table    string // write target
	key      int64  // write: the inserted order key
	rows     int    // export: expected row count
}

// ordered reports whether row order is part of the op's result.
func (o op) ordered() bool { return o.kind != opExport }

// stream hands out ops block by block: each block holds every op kind in
// its exact mix share and is shuffled by the seeded generator, so shares
// hold over any whole number of blocks and the order still varies.
type stream struct {
	rng   *rand.Rand
	gen   func(*rand.Rand) []op
	block []op
}

func newStream(seed uint64, lane int, gen func(*rand.Rand) []op) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, uint64(lane)+0x9e3779b97f4a7c15)), gen: gen}
}

func (s *stream) next() op {
	if len(s.block) == 0 {
		s.block = s.gen(s.rng)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	o := s.block[0]
	s.block = s.block[1:]
	return o
}

// q6 renders TPC-H Q6 with the given year, discount centre (hundredths)
// and quantity bound.
func q6(year, disc, qty int) string {
	return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01'
  AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < %d`,
		year, year+1, float64(disc-1)/100, float64(disc+1)/100, qty)
}

// randQ6 draws Q6 parameters from TPC-H's substitution ranges.
func randQ6(r *rand.Rand) string {
	return q6(1993+r.IntN(5), 2+r.IntN(8), 24+r.IntN(2))
}

// q6Pool draws n distinct Q6 texts.
func q6Pool(r *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		q := randQ6(r)
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// olapTemplates is olap-local's fixed query set; Q6 joins it with seeded
// parameters.
var olapTemplates = []struct{ name, sql string }{
	{"q1", bench.TPCHQ1},
	{"q3", bench.TPCHQ3},
	{"q5", bench.TPCHQ5},
	{"q10", bench.TPCHQ10},
	{"q12", bench.TPCHQ12},
	{"paper-q3", bench.Query3},
}

var olapEngines = []string{"volcano", "vec", "push"}

// olapQ6PoolSize is how many Q6 parameter sets one olap-local run draws;
// each is prepared once per engine during warm-up.
const olapQ6PoolSize = 6

// olapMix returns olap-local's block generator: every template (Q6 with a
// parameter set drawn from pool) on every engine, ad hoc and prepared.
func olapMix(pool []string) func(*rand.Rand) []op {
	return func(r *rand.Rand) []op {
		var ops []op
		for _, e := range olapEngines {
			for _, prepared := range []bool{false, true} {
				for _, t := range olapTemplates {
					ops = append(ops, op{tmpl: t.name, sql: t.sql, engine: e, prepared: prepared})
				}
				ops = append(ops, op{tmpl: "q6", sql: pool[r.IntN(len(pool))], engine: e, prepared: prepared})
			}
		}
		return ops
	}
}

// serveDashboards are serve-rw's repeated reads. None touches orders or
// lineitem, so INSERTs never change their results and set-up hashes stay
// valid for the whole run.
var serveDashboards = []struct{ name, sql string }{
	{"dash-nation", `SELECT n_name, COUNT(*) AS customers, SUM(c_acctbal) AS balance
FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY n_name`},
	{"dash-region", `SELECT r_name, COUNT(*) AS suppliers FROM supplier, nation, region
WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey GROUP BY r_name ORDER BY r_name`},
	{"dash-brand", `SELECT p_brand, COUNT(*) AS parts, AVG(p_retailprice) AS price
FROM part GROUP BY p_brand ORDER BY p_brand`},
	{"dash-segment", `SELECT c_mktsegment, COUNT(*) AS customers, AVG(c_acctbal) AS balance
FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment`},
	{"dash-stock", `SELECT ps_suppkey, SUM(ps_availqty) AS stock FROM partsupp
GROUP BY ps_suppkey ORDER BY ps_suppkey LIMIT 20`},
	{"dash-rich", `SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > 9000
ORDER BY s_acctbal DESC LIMIT 10`},
}

// serveFresh draws one analytic read of the given kind (0 to 2) over
// lineitem with fresh parameters, so it misses the result cache and scans
// through the buffer pool.
func serveFresh(r *rand.Rand, kind int) op {
	switch kind {
	case 0:
		return op{tmpl: "fresh-q6", sql: randQ6(r)}
	case 1:
		day := r.IntN(1300)
		return op{tmpl: "fresh-q1", sql: fmt.Sprintf(`SELECT l_returnflag, l_linestatus,
  SUM(l_quantity) AS sum_qty, SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= DATE '1995-01-01' + INTERVAL '%d' DAY
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, day)}
	default:
		year := 1993 + r.IntN(5)
		return op{tmpl: "fresh-q12", sql: fmt.Sprintf(`SELECT l_shipmode, COUNT(*) AS lines
FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_receiptdate >= DATE '%d-01-01' AND l_receiptdate < DATE '%d-01-01'
GROUP BY l_shipmode ORDER BY l_shipmode`, year, year+1)}
	}
}

// servePartCount is TPC-H's part cardinality per unit scale factor.
const servePartCount = 200000

// writeKeyBase puts inserted order keys far above any generated one.
const writeKeyBase = 50_000_000

// serveMix returns serve-rw's block generator for one connection: per 20
// ops, 12 dashboard reads (60%; half ad hoc, served from the result
// cache, half prepared, served through the reuse cache), 4 fresh analytic reads (20%), 1 export
// scan (5%) and 3 INSERTs (15%). lane keeps the connections' inserted keys
// apart.
func serveMix(sf float64, lane int) func(*rand.Rand) []op {
	parts := int(servePartCount * sf)
	// An export covers 3/8 of the part keys (750 at SF 0.01); TPC-H gives
	// every part four partsupp rows.
	width := parts * 3 / 8
	n := 0
	return func(r *rand.Rand) []op {
		var ops []op
		for _, d := range serveDashboards {
			ops = append(ops,
				op{tmpl: d.name, sql: d.sql},
				op{tmpl: d.name, sql: d.sql, prepared: true})
		}
		for kind := 0; kind < 4; kind++ {
			ops = append(ops, serveFresh(r, kind%3))
		}
		lo := 1 + r.IntN(parts-width+1)
		ops = append(ops, op{tmpl: "export", kind: opExport, rows: 4 * width, sql: fmt.Sprintf(
			`SELECT ps_partkey, ps_suppkey, ps_availqty, ps_supplycost FROM partsupp
WHERE ps_partkey >= %d AND ps_partkey < %d`, lo, lo+width)})
		for _, table := range []string{"orders", "lineitem", []string{"orders", "lineitem"}[r.IntN(2)]} {
			n++
			key := int64(writeKeyBase + lane*1_000_000 + n)
			ops = append(ops, op{tmpl: "insert-" + table, kind: opWrite, table: table, key: key, sql: insertSQL(table, key, r)})
		}
		return ops
	}
}

// insertSQL renders a one-row INSERT. Inserted rows are dated 1999, after
// every generated date, so the date-bounded analytic reads never see them.
func insertSQL(table string, key int64, r *rand.Rand) string {
	day := 1 + r.IntN(28)
	if table == "orders" {
		return fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, 'O', %.2f, DATE '1999-01-%02d', '3-MEDIUM', 'Clerk#000000001', 0, 'perfbench order')`,
			key, 1+r.IntN(1000), 1000+r.Float64()*9000, day)
	}
	return fmt.Sprintf(`INSERT INTO lineitem VALUES (%d, %d, %d, 1, %d, %.2f, 0.05, 0.02, 'N', 'O', DATE '1999-02-%02d', DATE '1999-03-%02d', DATE '1999-03-%02d', 'NONE', 'MAIL', 'perfbench line')`,
		key, 1+r.IntN(1000), 1+r.IntN(50), 1+r.IntN(50), 1000+r.Float64()*9000, day, day, day)
}

// readBackSQL selects the row an INSERT added.
func readBackSQL(table string, key int64) string {
	if table == "orders" {
		return fmt.Sprintf(`SELECT o_orderkey FROM orders WHERE o_orderkey = %d`, key)
	}
	return fmt.Sprintf(`SELECT l_orderkey FROM lineitem WHERE l_orderkey = %d`, key)
}

// scatterFixed are scatter-3's fixed templates: a scattered partial
// aggregate (TPC-H Q1), the co-located lineitem⋈orders join (TPC-H Q12)
// and replicated-only dimension queries routed to a single shard.
var scatterFixed = []struct {
	name, sql string
}{
	{"q1", bench.TPCHQ1},
	{"q12", bench.TPCHQ12},
	{"dim-nation", `SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name`},
	{"dim-segment", `SELECT c_mktsegment, COUNT(*) AS customers FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment`},
}

// scatterScanKeys is the order-key width of one scan leg; order keys are
// dense and an order has four lines on average, so a leg returns about
// 4000 rows.
const scatterScanKeys = 1000

// scatterPools are the seeded parameter sets of scatter-3's parameterized
// templates, drawn once per run so set-up can compute their references.
type scatterPools struct {
	q6    []string
	scans []string
}

const scatterPoolSize = 8

func newScatterPools(r *rand.Rand, sf float64) scatterPools {
	p := scatterPools{q6: q6Pool(r, scatterPoolSize)}
	maxKey := int(1_500_000 * sf)
	for i := 0; i < scatterPoolSize; i++ {
		lo := 1 + r.IntN(maxKey-scatterScanKeys)
		p.scans = append(p.scans, fmt.Sprintf(
			`SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_orderkey >= %d AND l_orderkey < %d`,
			lo, lo+scatterScanKeys))
	}
	return p
}

// scatterMix returns scatter-3's block generator: per 10 ops, 2 Q1, 2
// parameterized Q6, 2 Q12 (scattered aggregates, 60%), 2 row-returning scan
// legs (20%) and 2 dimension queries (20%).
func scatterMix(p scatterPools) func(*rand.Rand) []op {
	return func(r *rand.Rand) []op {
		var ops []op
		for i := 0; i < 2; i++ {
			ops = append(ops,
				op{tmpl: "q1", sql: scatterFixed[0].sql},
				op{tmpl: "q6", sql: p.q6[r.IntN(len(p.q6))]},
				op{tmpl: "q12", sql: scatterFixed[1].sql},
				op{tmpl: "scan", kind: opExport, sql: p.scans[r.IntN(len(p.scans))]},
			)
			d := scatterFixed[2+r.IntN(2)]
			ops = append(ops, op{tmpl: d.name, sql: d.sql})
		}
		return ops
	}
}

// simQueries are paper-sim's queries: the paper's Query 1, its Query 3
// under a hash join, and TPC-H Q1 and Q3.
var simQueries = []struct {
	name, sql string
	hash      bool
}{
	{"p1", bench.Query1, false},
	{"p3", bench.Query3, true},
	{"q1", bench.TPCHQ1, false},
	{"q3", bench.TPCHQ3, false},
}

// simAlts are paper-sim's execution variants: the conventional Volcano
// plan, the refined (buffered) Volcano plan, and the block and push-fused
// compilations of the conventional plan.
var simAlts = []string{"conv", "buffered", "vec", "push"}

// simMix returns paper-sim's pass generator: every query under every
// variant, the Volcano pair (conv and buffered, the paper's comparison)
// twice and vec and push once, in seeded order. The block and push-fused
// executions run several times faster than the Volcano ones; with equal
// shares the median would sit in the gap between the two clusters, while
// doubling the Volcano pair puts it inside the slow cluster.
func simMix() func(*rand.Rand) []op {
	return func(*rand.Rand) []op {
		var ops []op
		for _, q := range simQueries {
			for _, a := range simAlts {
				o := op{tmpl: q.name + "." + a}
				ops = append(ops, o)
				if a == "conv" || a == "buffered" {
					ops = append(ops, o)
				}
			}
		}
		return ops
	}
}
