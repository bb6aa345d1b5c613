package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Aggregate implements grouped and ungrouped aggregation with hashed
// grouping. With no GROUP BY expressions it produces exactly one row (the
// paper's Query 1 and Query 2 shape); with grouping it produces one row per
// group, emitted in group-key order for deterministic results.
//
// The aggregation module's instruction footprint depends on which aggregate
// functions the query uses — the paper's Table 2 lists the base plus
// per-function increments — so the planner requests the module from
// codemodel.AggModule with the query's function list.
type Aggregate struct {
	Child   Operator
	GroupBy []expr.Expr
	Aggs    []expr.AggSpec

	module       *codemodel.Module
	label        byte
	stats        *OpStats
	fault        *faultinject.Point
	publishFault *faultinject.Point
	schema       storage.Schema
	shared       *SharedAgg

	keys         *GroupKeys
	groups       map[string]*aggGroup
	order        []string
	memUsed      int64
	pos          int
	done         bool
	opened       bool
	tableRegion  uint64
	tableBuckets uint64
}

type aggGroup struct {
	keyVals storage.Row
	accs    []expr.Accumulator
}

// NewAggregate constructs the operator, deriving the output schema.
// module may be nil.
func NewAggregate(child Operator, groupBy []expr.Expr, aggs []expr.AggSpec, module *codemodel.Module) (*Aggregate, error) {
	a := &Aggregate{
		Child:   child,
		GroupBy: groupBy,
		Aggs:    aggs,
		module:  module,
		label:   'A',
	}
	for i, g := range groupBy {
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*expr.ColRef); ok {
			name = cr.Name
		}
		a.schema = append(a.schema, storage.Column{Name: name, Type: g.Type()})
	}
	for _, spec := range aggs {
		ty, err := spec.ResultType()
		if err != nil {
			return nil, err
		}
		a.schema = append(a.schema, storage.Column{Name: spec.OutputName(), Type: ty})
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("exec: Aggregate needs at least one aggregate")
	}
	return a, nil
}

// SetTraceLabel sets the trace label.
func (a *Aggregate) SetTraceLabel(b byte) { a.label = b }

// SetShared wires the finished aggregate table to the semantic reuse
// cache; see SharedAgg. Must be set before Open.
func (a *Aggregate) SetShared(sa *SharedAgg) { a.shared = sa }

// Open implements Operator.
func (a *Aggregate) Open(ctx *Context) error {
	a.stats = ctx.StatsFor(a, a.Name())
	if a.stats != nil {
		defer a.stats.EndOpen(ctx, a.stats.Begin(ctx))
	}
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	a.fault = ctx.FaultPoint(a.Name() + ":next")
	a.publishFault = ctx.FaultPoint(a.Name() + ":publish")
	a.keys = NewGroupKeys(a.GroupBy)
	a.groups = make(map[string]*aggGroup)
	a.order = nil
	ctx.ShrinkMem(a.memUsed) // reopen without Close: release stale charges
	a.memUsed = 0
	a.pos, a.done = 0, false
	if ctx.CPU != nil && a.tableRegion == 0 {
		a.tableBuckets = 1 << 12
		a.tableRegion = ctx.CPU.AllocData(int(a.tableBuckets) * 64)
	}
	a.opened = true
	return nil
}

// consume drains the child, folding every row into its group.
func (a *Aggregate) consume(ctx *Context) error {
	start := time.Now()
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := a.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		enc, err := a.keys.Eval(row)
		if err != nil {
			return err
		}
		grp, ok := a.groups[string(enc)]
		if !ok {
			// Each new group retains its key string, key row, and one
			// accumulator per aggregate for the life of the operator.
			key, keyVals := string(enc), a.keys.Vals().Clone()
			charge := int64(len(key)) + int64(keyVals.ByteSize()) +
				int64(len(a.Aggs))*hashEntryOverhead
			if err := ctx.GrowMem(charge); err != nil {
				return err
			}
			a.memUsed += charge
			grp = &aggGroup{keyVals: keyVals, accs: make([]expr.Accumulator, len(a.Aggs))}
			for i, spec := range a.Aggs {
				acc, err := expr.NewAccumulator(spec)
				if err != nil {
					return err
				}
				grp.accs[i] = acc
			}
			a.groups[key] = grp
			a.order = append(a.order, key)
		}
		for _, acc := range grp.accs {
			if err := acc.Add(row); err != nil {
				return err
			}
		}
		// The transition functions touch the group's accumulator state.
		if ctx.CPU != nil {
			addr := a.keys.SimAddr(a.tableRegion, a.tableBuckets)
			ctx.Read(addr, 64)
			ctx.Write(addr, 64)
		}
		ctx.ExecModule(a.module, ctx.DataBits(!ok))
	}
	// Deterministic output order: sort groups by key values.
	sort.Slice(a.order, func(i, j int) bool {
		gi, gj := a.groups[a.order[i]], a.groups[a.order[j]]
		for k := range gi.keyVals {
			if c := storage.Compare(gi.keyVals[k], gj.keyVals[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	a.done = true
	if a.shared != nil && a.shared.Publish != nil {
		// Reuse-cache miss: materialize the complete, sorted output — the
		// same rows Next will emit — and hand it to the cache. The publish
		// fault fires first, so a poisoned table can never be inserted.
		if err := a.publishFault.Fire(); err != nil {
			return err
		}
		rows, bytes, err := a.materializeRows()
		if err != nil {
			return err
		}
		a.shared.Publish(rows, bytes, time.Since(start))
	}
	return nil
}

// materializeRows builds the operator's full output — mirroring Next's
// emission exactly, including the one synthetic row of an ungrouped
// aggregate over zero input rows — plus the retained-bytes estimate the
// cache charges for it. Accumulator Result calls are pure, so emission
// after materialization produces identical values.
func (a *Aggregate) materializeRows() ([]storage.Row, int64, error) {
	var bytes int64
	if len(a.GroupBy) == 0 && len(a.order) == 0 {
		out := make(storage.Row, 0, len(a.Aggs))
		for _, spec := range a.Aggs {
			acc, err := expr.NewAccumulator(spec)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, acc.Result())
		}
		return []storage.Row{out}, int64(out.ByteSize()) + hashEntryOverhead, nil
	}
	rows := make([]storage.Row, 0, len(a.order))
	for _, key := range a.order {
		grp := a.groups[key]
		out := make(storage.Row, 0, len(a.GroupBy)+len(a.Aggs))
		out = append(out, grp.keyVals...)
		for _, acc := range grp.accs {
			out = append(out, acc.Result())
		}
		rows = append(rows, out)
		bytes += int64(out.ByteSize()) + hashEntryOverhead
	}
	return rows, bytes, nil
}

// Next implements Operator.
func (a *Aggregate) Next(ctx *Context) (res storage.Row, err error) {
	if !a.opened {
		return nil, errNotOpen(a.Name())
	}
	if a.stats != nil {
		defer a.stats.EndNext(ctx, a.stats.Begin(ctx), &res)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(a.label, a.Name())
	}
	if err := a.fault.Fire(); err != nil {
		return nil, err
	}
	if !a.done {
		if err := a.consume(ctx); err != nil {
			return nil, err
		}
	}
	// Ungrouped aggregation over zero rows still yields one row
	// (COUNT(*) = 0, SUM = NULL, …).
	if len(a.GroupBy) == 0 && len(a.order) == 0 && a.pos == 0 {
		a.pos++
		out := make(storage.Row, 0, len(a.Aggs))
		for _, spec := range a.Aggs {
			acc, err := expr.NewAccumulator(spec)
			if err != nil {
				return nil, err
			}
			out = append(out, acc.Result())
		}
		ctx.ExecModule(a.module, ctx.DataBits(true))
		return out, nil
	}
	if a.pos >= len(a.order) {
		return nil, nil
	}
	grp := a.groups[a.order[a.pos]]
	a.pos++
	out := make(storage.Row, 0, len(a.GroupBy)+len(a.Aggs))
	out = append(out, grp.keyVals...)
	for _, acc := range grp.accs {
		out = append(out, acc.Result())
	}
	ctx.ExecModule(a.module, ctx.DataBits(true))
	return out, nil
}

// Close implements Operator.
func (a *Aggregate) Close(ctx *Context) error {
	a.opened = false
	a.groups = nil
	a.order = nil
	ctx.ShrinkMem(a.memUsed)
	a.memUsed = 0
	return a.Child.Close(ctx)
}

// Schema implements Operator.
func (a *Aggregate) Schema() storage.Schema { return a.schema }

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Child} }

// Name implements Operator.
func (a *Aggregate) Name() string {
	aggs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		aggs[i] = s.String()
	}
	if len(a.GroupBy) == 0 {
		return fmt.Sprintf("Aggregate(%s)", strings.Join(aggs, ", "))
	}
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = g.String()
	}
	return fmt.Sprintf("Aggregate(%s GROUP BY %s)", strings.Join(aggs, ", "), strings.Join(groups, ", "))
}

// Module implements Operator.
func (a *Aggregate) Module() *codemodel.Module { return a.module }

// Blocking implements Operator. Although aggregation consumes its whole
// input before emitting, its transition code runs once per input tuple,
// interleaved with the child — which is exactly the thrashing pattern the
// paper buffers against. The paper accordingly treats Aggregation as a
// regular execution-group member (its Query 2 groups Scan and Aggregation
// together; its Query 1 buffers between them), reserving the blocking
// exclusion for sort and hash-table building. We follow that.
func (a *Aggregate) Blocking() bool { return false }

// AggFuncNames extracts the lower-case function-name list for
// codemodel.AggModule from a spec list.
func AggFuncNames(specs []expr.AggSpec) []string {
	var out []string
	for _, s := range specs {
		switch s.Func {
		case expr.AggCountStar, expr.AggCount:
			out = append(out, "count")
		case expr.AggSum:
			out = append(out, "sum")
		case expr.AggAvg:
			out = append(out, "avg")
		case expr.AggMin:
			out = append(out, "min")
		case expr.AggMax:
			out = append(out, "max")
		}
	}
	return out
}
