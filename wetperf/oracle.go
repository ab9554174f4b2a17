package main

import (
	"fmt"
	"slices"
	"sort"

	"wet/internal/ir"
	"wet/internal/trace"
)

// sample is one (timestamp, value) element of an expected per-statement
// value or address trace.
type sample struct {
	ts  uint32
	val int64
}

// pathKey names one Ball–Larus path: the WET node that its executions
// label.
type pathKey struct {
	fn  int
	pid int64
}

// oracle is a trace.Sink that keeps the raw interpreter event stream in a
// compact columnar form and derives every expected answer from it: the
// control-flow sequence, per-statement value and address sequences, full
// backward slices, and the statement counts. It never consults the WET.
//
// Coordinates follow the WET's: a timestamp is the 1-based index of a path
// execution, a position is a statement's index within its path, and values
// are 32-bit words (the paper's storage unit), so a produced value is
// compared as int64(int32(v)).
type oracle struct {
	mask int64 // memory address mask of the program

	stmt     []int32  // static statement id per event; event e is instance e+1
	srcStart []uint32 // per event, start of its sources in src (len events+1)
	src      []uint32 // producing instances: data sources then the control source

	pathStart []uint32 // per timestamp-1, index of the path's first event
	pathKeyIx []int32  // per timestamp-1, index into keys
	pathOrd   []uint32 // per timestamp-1, execution ordinal within its path
	keys      []pathKey
	keyIx     map[pathKey]int32
	keyExecs  []uint32
	keyTS     [][]uint32 // per key, timestamps of its executions (see finish)

	vals  map[int][]sample // def statements
	addrs map[int][]sample // loads and stores
	start uint32           // first event of the open path
}

func newOracle(p *ir.Program) *oracle {
	return &oracle{
		mask:     p.MemWords - 1,
		srcStart: []uint32{0},
		keyIx:    map[pathKey]int32{},
		vals:     map[int][]sample{},
		addrs:    map[int][]sample{},
	}
}

// Stmt implements trace.Sink.
func (o *oracle) Stmt(inst trace.Inst, st *ir.Stmt, value int64, ddSrcs []trace.Inst, ddVals []int64, cdSrc trace.Inst) {
	ts := uint32(len(o.pathStart)) + 1
	o.stmt = append(o.stmt, int32(st.ID))
	for _, s := range ddSrcs {
		if s != 0 {
			o.src = append(o.src, uint32(s))
		}
	}
	if cdSrc != 0 {
		o.src = append(o.src, uint32(cdSrc))
	}
	o.srcStart = append(o.srcStart, uint32(len(o.src)))
	if st.Op.HasDef() {
		o.vals[st.ID] = append(o.vals[st.ID], sample{ts, int64(int32(value))})
	}
	if st.Op == ir.OpLoad || st.Op == ir.OpStore {
		base := st.A.Imm
		if st.A.IsReg {
			base = ddVals[0] // the address register is always the first use
		}
		o.addrs[st.ID] = append(o.addrs[st.ID], sample{ts, (base + st.Off) & o.mask})
	}
}

// PathDone implements trace.Sink.
func (o *oracle) PathDone(fn int, pathID int64) {
	k := pathKey{fn, pathID}
	ix, ok := o.keyIx[k]
	if !ok {
		ix = int32(len(o.keys))
		o.keys = append(o.keys, k)
		o.keyIx[k] = ix
		o.keyExecs = append(o.keyExecs, 0)
	}
	o.pathStart = append(o.pathStart, o.start)
	o.pathKeyIx = append(o.pathKeyIx, ix)
	o.pathOrd = append(o.pathOrd, o.keyExecs[ix])
	o.keyExecs[ix]++
	o.start = uint32(len(o.stmt))
}

// stmts is the dynamic statement count.
func (o *oracle) stmts() uint64 { return uint64(len(o.stmt)) }

// time is the trace length in timestamps.
func (o *oracle) time() uint32 { return uint32(len(o.pathStart)) }

// hashStep folds one value into a running sequence hash; sequences hash
// equal exactly when they are equal, up to 64-bit collisions.
func hashStep(h uint64, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

const hashInit = 0xcbf29ce484222325

// cfHash is the hash of the control-flow sequence (statement ids in
// execution order), or of its reverse.
func (o *oracle) cfHash(forward bool) uint64 {
	h := uint64(hashInit)
	if forward {
		for _, s := range o.stmt {
			h = hashStep(h, uint64(s))
		}
		return h
	}
	for i := len(o.stmt) - 1; i >= 0; i-- {
		h = hashStep(h, uint64(o.stmt[i]))
	}
	return h
}

// cfRange returns the statement ids executed at timestamps from..to
// inclusive (1 <= from <= to <= time()).
func (o *oracle) cfRange(from, to uint32) []int32 {
	end := uint32(len(o.stmt))
	if int(to) < len(o.pathStart) {
		end = o.pathStart[to]
	}
	return o.stmt[o.pathStart[from-1]:end]
}

func sampleHash(s []sample) uint64 {
	h := uint64(hashInit)
	for _, x := range s {
		h = hashStep(hashStep(h, uint64(x.ts)), uint64(x.val))
	}
	return h
}

// event returns the event index of the instance at (ts, pos).
func (o *oracle) event(ts uint32, pos int) int { return int(o.pathStart[ts-1]) + pos }

// tsOf returns the timestamp of event e.
func (o *oracle) tsOf(e int) uint32 {
	return uint32(sort.Search(len(o.pathStart), func(i int) bool { return int(o.pathStart[i]) > e }))
}

// packTP packs a (timestamp, position) pair; positions fit in 16 bits.
func packTP(ts uint32, pos int) uint64 { return uint64(ts)<<16 | uint64(pos) }

// backward returns the full backward slice of the instance at (ts, pos) as
// sorted packed (ts, pos) pairs, found by a breadth-first search over the
// raw data and control sources.
func (o *oracle) backward(ts uint32, pos int) []uint64 { return o.backwardUpTo(ts, pos, 0) }

// backwardUpTo is backward for slices of at most limit instances: it
// returns nil as soon as the search finds more (limit 0: no limit).
func (o *oracle) backwardUpTo(ts uint32, pos int, limit int) []uint64 {
	seen := make([]uint64, (len(o.stmt)+63)/64)
	first := o.event(ts, pos)
	seen[first/64] |= 1 << (first % 64)
	queue := []int{first}
	for i := 0; i < len(queue); i++ {
		e := queue[i]
		for _, s := range o.src[o.srcStart[e]:o.srcStart[e+1]] {
			p := int(s) - 1
			if seen[p/64]&(1<<(p%64)) == 0 {
				seen[p/64] |= 1 << (p % 64)
				queue = append(queue, p)
			}
		}
		if limit > 0 && len(queue) > limit {
			return nil
		}
	}
	out := make([]uint64, len(queue))
	for i, e := range queue {
		t := o.tsOf(e)
		out[i] = packTP(t, e-int(o.pathStart[t-1]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sliceClosed reports whether set (sorted packed (ts, pos) pairs, no
// repeats) is part of the backward slice of crit: it holds crit, and every
// other member is a raw data or control source of some member, so by
// induction from crit every member is reachable from it.
func (o *oracle) sliceClosed(set []uint64, crit uint64) bool {
	ev := make(map[int]bool, len(set))
	for k, x := range set {
		ts, pos := uint32(x>>16), int(x&0xffff)
		if ts == 0 || ts > o.time() || (k > 0 && set[k-1] == x) {
			return false
		}
		e := o.event(ts, pos)
		if e >= len(o.stmt) || (int(ts) < len(o.pathStart) && e >= int(o.pathStart[ts])) {
			return false
		}
		ev[e] = false
	}
	ce := o.event(uint32(crit>>16), int(crit&0xffff))
	if _, ok := ev[ce]; !ok {
		return false
	}
	for e := range ev {
		for _, s := range o.src[o.srcStart[e]:o.srcStart[e+1]] {
			if _, ok := ev[int(s)-1]; ok {
				ev[int(s)-1] = true
			}
		}
	}
	for e, reached := range ev {
		if !reached && e != ce {
			return false
		}
	}
	return true
}

// checkSlice verifies a WET slice (sorted packed (ts, pos) pairs) asked
// at (ts, pos) with a cap of limit instances (0: none). A slice the cap
// did not cut must equal the oracle's; a cut one must hold exactly limit
// members drawn from the oracle's slice.
func (o *oracle) checkSlice(got []uint64, ts uint32, pos int, limit int) error {
	if full := o.backwardUpTo(ts, pos, limit); full != nil {
		if !slices.Equal(got, full) {
			return fmt.Errorf("%d instances, oracle's slice has %d (or members differ)", len(got), len(full))
		}
	} else if len(got) != limit || !o.sliceClosed(got, packTP(ts, pos)) {
		return fmt.Errorf("%d instances, want %d drawn from the oracle's slice", len(got), limit)
	}
	return nil
}

// instance returns, for the instance at (ts, pos), the path it belongs to
// and its execution ordinal — the WET's (node, pos, ord) coordinates once
// the path is mapped to its node.
func (o *oracle) instance(ts uint32) (pathKey, int) {
	return o.keys[o.pathKeyIx[ts-1]], int(o.pathOrd[ts-1])
}

// finish indexes the executions of every path by timestamp. Call it once
// the run is over; the oracle is read-only (and safe to share) afterwards.
func (o *oracle) finish() {
	o.keyTS = make([][]uint32, len(o.keys))
	for i := range o.keyTS {
		o.keyTS[i] = make([]uint32, 0, o.keyExecs[i])
	}
	for t, kx := range o.pathKeyIx {
		o.keyTS[kx] = append(o.keyTS[kx], uint32(t+1))
	}
}

// tsOfExec returns the timestamp of the ord-th execution of path k, or 0
// when path k never ran that often.
func (o *oracle) tsOfExec(k pathKey, ord int) uint32 {
	ix, ok := o.keyIx[k]
	if !ok || ord < 0 || ord >= len(o.keyTS[ix]) {
		return 0
	}
	return o.keyTS[ix][ord]
}
