package sql

import (
	"reflect"
	"sort"
	"testing"

	"bufferdb/internal/plan"
)

// joinOutputs plans a query and returns, bottom-up, the output columns of
// every join as "table.column" (nil for a full-width join).
func joinOutputs(t *testing.T, query string, opt Options) [][]string {
	t.Helper()
	p, err := PlanQuery(query, testDB, opt)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	var out [][]string
	plan.Walk(p, func(n *plan.Node) {
		switch n.Kind {
		case plan.KindHashJoin, plan.KindMergeJoin, plan.KindNestLoopJoin:
		default:
			return
		}
		var cols []string
		if n.Emit != nil {
			cols = []string{}
			for _, c := range n.Schema() {
				cols = append(cols, c.QualifiedName())
			}
		}
		out = append([][]string{cols}, out...) // Walk is top-down
	})
	return out
}

const paperQ3 = `
SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount)
FROM lineitem, orders
WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`

const tpchQ3 = `
SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15'
  AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10`

const tpchQ10 = `
SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01'
  AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH
  AND l_returnflag = 'R'
  AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address
ORDER BY revenue DESC
LIMIT 20`

// TestJoinEmitsOnlyColumnsReadLater pins each join's emit list: the
// columns later join keys, residual filters, the select list and GROUP BY
// read — never a column only a pushed-down scan filter reads — and the
// same lists under every join method.
func TestJoinEmitsOnlyColumnsReadLater(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  [][]string
	}{
		{"paper Q3", paperQ3, [][]string{
			{"lineitem.l_discount", "orders.o_totalprice"},
		}},
		{"TPC-H Q3", tpchQ3, [][]string{
			// c_mktsegment and o_orderdate's filter run in the scans.
			{"orders.o_orderkey", "orders.o_orderdate", "orders.o_shippriority"},
			{"orders.o_orderdate", "orders.o_shippriority", "lineitem.l_orderkey",
				"lineitem.l_extendedprice", "lineitem.l_discount"},
		}},
		{"TPC-H Q5", q5, [][]string{
			{"customer.c_nationkey", "orders.o_orderkey"},
			{"customer.c_nationkey", "lineitem.l_suppkey", "lineitem.l_extendedprice", "lineitem.l_discount"},
			// c_nationkey = s_nationkey is unconsumed: a residual filter
			// above the joins reads both sides.
			{"customer.c_nationkey", "lineitem.l_extendedprice", "lineitem.l_discount", "supplier.s_nationkey"},
			{"customer.c_nationkey", "lineitem.l_extendedprice", "lineitem.l_discount", "supplier.s_nationkey",
				"nation.n_name", "nation.n_regionkey"},
			{"customer.c_nationkey", "lineitem.l_extendedprice", "lineitem.l_discount", "supplier.s_nationkey",
				"nation.n_name"},
		}},
		{"TPC-H Q10", tpchQ10, [][]string{
			{"customer.c_custkey", "customer.c_name", "customer.c_address", "customer.c_nationkey",
				"customer.c_phone", "customer.c_acctbal", "orders.o_orderkey"},
			{"customer.c_custkey", "customer.c_name", "customer.c_address", "customer.c_nationkey",
				"customer.c_phone", "customer.c_acctbal", "lineitem.l_extendedprice", "lineitem.l_discount"},
			{"customer.c_custkey", "customer.c_name", "customer.c_address", "customer.c_phone",
				"customer.c_acctbal", "lineitem.l_extendedprice", "lineitem.l_discount", "nation.n_name"},
		}},
		{"SELECT * keeps full width", `SELECT * FROM region, nation WHERE r_regionkey = n_regionkey`,
			[][]string{nil}},
		{"COUNT(*) emits nothing", `SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey`,
			[][]string{{}}},
	}
	for _, c := range cases {
		for _, m := range []JoinMethod{JoinHash, JoinMerge} {
			t.Run(c.name+"/"+string(m), func(t *testing.T) {
				if got := joinOutputs(t, c.query, Options{ForceJoin: m}); !reflect.DeepEqual(got, c.want) {
					t.Errorf("join outputs:\n got  %q\n want %q", got, c.want)
				}
			})
		}
	}
}

// TestJoinEmitResolvesByBinding: in a self-join both copies of a column
// share a name; the emit list must keep the copy the query names, and the
// rows must carry that copy's values.
func TestJoinEmitResolvesByBinding(t *testing.T) {
	for _, c := range []struct {
		query string
		emit  []int
		want  []string
	}{
		// n1 is the outer side (positions 0-3), n2 the inner (4-7).
		{`SELECT n1.n_name FROM nation n1, nation n2 WHERE n1.n_nationkey = n2.n_regionkey`,
			[]int{1}, []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT"}},
		{`SELECT n2.n_name FROM nation n1, nation n2 WHERE n1.n_nationkey = n2.n_regionkey AND n1.n_nationkey = 0`,
			[]int{5}, []string{"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"}},
	} {
		for _, m := range []JoinMethod{JoinHash, JoinMerge} {
			p, err := PlanQuery(c.query, testDB, Options{ForceJoin: m})
			if err != nil {
				t.Fatal(err)
			}
			var emit []int
			plan.Walk(p, func(n *plan.Node) {
				if n.Kind == plan.KindHashJoin || n.Kind == plan.KindMergeJoin {
					emit = n.Emit
				}
			})
			if !reflect.DeepEqual(emit, c.emit) {
				t.Errorf("%s (%s): emit %v, want %v", c.query, m, emit, c.emit)
			}
			seen := map[string]bool{}
			for _, r := range runSQL(t, c.query, Options{ForceJoin: m}) {
				seen[r[0].S] = true
			}
			var got []string
			for s := range seen {
				got = append(got, s)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s (%s): names %v, want %v", c.query, m, got, c.want)
			}
		}
	}
}

// TestIndexedJoinInnerKeepsPushedFilters: an index-driven join inner cannot
// evaluate the filters pushed to its table, so the planner must not read
// the index for it. A merge join sorts the filtered scan instead; a
// nest-loop join is refused. Both used to drop the filters silently.
func TestIndexedJoinInnerKeepsPushedFilters(t *testing.T) {
	q := `SELECT COUNT(*) FROM orders, lineitem
	      WHERE o_orderkey = l_orderkey AND l_shipmode = 'MAIL'`
	want := runSQL(t, q, Options{ForceJoin: JoinHash})[0][0].I
	if got := runSQL(t, q, Options{ForceJoin: JoinMerge})[0][0].I; got != want {
		t.Errorf("merge join counted %d rows, hash join %d", got, want)
	}
	if _, err := PlanQuery(q, testDB, Options{ForceJoin: JoinNestLoop}); err == nil {
		t.Error("nest-loop join over a filtered inner planned; its filter would be lost")
	}
}
