package exec

import (
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// GroupKeys evaluates an aggregation's GROUP BY expressions for one input
// row at a time and encodes the values as an unambiguous hash-table key
// (see storage.AppendKey). exec.Aggregate, vec.HashAggregate and push's
// aggregate sink all group through it.
//
// The encoding and the evaluated values live in buffers reused across
// rows, so looking up an existing group allocates nothing: index the map
// with string(key), which Go does without copying, and copy the key and
// Vals only when the group is new.
type GroupKeys struct {
	exprs []expr.Expr
	vals  storage.Row
	buf   []byte
}

// NewGroupKeys returns a key evaluator for the given expressions.
func NewGroupKeys(exprs []expr.Expr) *GroupKeys {
	return &GroupKeys{exprs: exprs, vals: make(storage.Row, len(exprs))}
}

// Eval evaluates the expressions over row and returns the encoded key,
// valid until the next call.
func (k *GroupKeys) Eval(row storage.Row) ([]byte, error) {
	k.buf = k.buf[:0]
	for i, e := range k.exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		k.vals[i] = v
		k.buf = storage.AppendKey(k.buf, v)
	}
	return k.buf, nil
}

// Vals returns the values of the last Eval, valid until the next call.
func (k *GroupKeys) Vals() storage.Row { return k.vals }

// SimAddr maps the last evaluated key to its simulated accumulator slot:
// one of buckets 64-byte slots starting at region, 0 when unmodeled. It
// hashes the values' display form (Row.String), not the key encoding, so
// the simulated access pattern does not depend on how keys are encoded.
func (k *GroupKeys) SimAddr(region, buckets uint64) uint64 {
	if region == 0 {
		return 0
	}
	key := k.vals.String()
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return region + (h%buckets)*64
}
