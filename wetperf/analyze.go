package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"wet"
)

// target is one saved container prepared for the analyze pass: the
// subject it traces and the seeded questions asked of it.
type target struct {
	s    *subject
	data []byte
	crit []criterion // capped slices
	got  [][]uint64  // each capped slice's answer once it agreed with the oracle
	full criterion   // one uncapped slice, checked for equality
	want []uint64    // its expected slice, filled on first use
	wins [][2]uint32 // CF-range windows of the lazy first answers
}

// fullSliceFrac confines the uncapped slice's criterion to the start of
// the trace, where slices are short enough to compute on every pass.
const fullSliceFrac = 1.0 / 16

// newTargets pairs containers with seeded questions. The seed stream is
// consumed in subject order so the same seed asks the same questions.
func newTargets(cfg config, subs []*subject, data [][]byte, seed int64) []*target {
	r := rand.New(rand.NewSource(seed))
	out := make([]*target, len(subs))
	for i, s := range subs {
		t := &target{s: s, data: data[i], crit: s.criteria(r, cfg.slicesPerProg, 1)}
		t.got = make([][]uint64, len(t.crit))
		t.full = s.criteria(r, 1, fullSliceFrac)[0]
		t.wins = s.windows(r, cfg.firstWindows, cfg.windowTS)
		out[i] = t
	}
	return out
}

// analyzeTotals accumulates the read-path figures over every pass.
type analyzeTotals struct {
	passes, reps          int
	open, first, slice    opTimes // per container or criterion
	cf, profile           opTimes // per container and direction, per statement
	lazy, firstRange      []float64
	cfFwd, cfBwd          float64 // seconds over all passes
	valS, addrS, sliceS   float64
	sliceInst, sliceEdges int
	seek                  wet.SeekStats
}

func newAnalyzeTotals(reps int) *analyzeTotals {
	return &analyzeTotals{reps: reps, open: newOpTimes(), first: newOpTimes(), slice: newOpTimes(),
		cf: newOpTimes(), profile: newOpTimes()}
}

// nodeKeys maps every node of tr to the path it labels.
func nodeKeys(tr *wet.Trace) []pathKey {
	ns := tr.WET().Nodes
	out := make([]pathKey, len(ns))
	for i, n := range ns {
		out[i] = pathKey{n.Fn, n.PathID}
	}
	return out
}

// sliceSet converts a WET slice to sorted packed (ts, pos) pairs through
// the oracle's path executions; an instance the oracle cannot place packs
// to timestamp 0, which no expected slice contains.
func sliceSet(insts []wet.Instance, keys []pathKey, o *oracle) []uint64 {
	out := make([]uint64, len(insts))
	for i, in := range insts {
		var ts uint32
		if in.Node >= 0 && in.Node < len(keys) {
			ts = o.tsOfExec(keys[in.Node], in.Ord)
		}
		out[i] = packTP(ts, in.Pos)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// analyzeRound runs one analyze pass over every target.
// The pass repeats each timed operation cfg.reps times, one repetition
// over every target before the next, so that an operation's repetitions
// are spread over the pass rather than run back to back: a slow stretch
// of the shared machine then seldom covers all of them. Value and address
// traces and the uncapped slice run on the first repetition only.
func (r *run) analyzeRound(ts []*target, validate bool, tot *analyzeTotals) {
	tot.passes++
	for k := 0; k < r.cfg.reps; k++ {
		for _, t := range ts {
			if t.data == nil {
				continue
			}
			sp := r.tr.op("analyze")
			r.analyzeOne(t, k == 0, validate && k == 0, tot, sp)
			sp.end()
		}
	}
}

// analyzeOne runs one repetition of the analyze operations on t; first
// adds the operations that run once per pass.
func (r *run) analyzeOne(t *target, first, validate bool, tot *analyzeTotals, sp spanRef) {
	s, o := t.s, t.s.or

	// Eager opens, the last of which the queries below use, then lazy
	// opens each followed by one CF-range answer. A collection runs first,
	// so that the garbage of the previous target's operations is not
	// collected inside this target's first timed calls.
	runtime.GC()
	var tr *wet.Trace
	for k := 0; k < r.cfg.opens; k++ {
		r.attempted++
		t0 := time.Now()
		c := sp.child("wet.open")
		x, _, err := wet.Open(bytes.NewReader(t.data))
		c.end()
		if err != nil {
			r.fail("open %s: %v", s.name, err)
			return
		}
		tot.open.add(s.name, seconds(t0), 1)
		tr = x
	}
	if validate {
		if err := tr.Validate(); err != nil {
			r.wrong("validate %s: %v", s.name, err)
		}
		if tr.Time() != o.time() {
			r.wrong("%s: trace time %d, oracle %d", s.name, tr.Time(), o.time())
		}
	}
	for w, win := range t.wins {
		from, to := win[0], win[1]
		want := o.cfRange(from, to)
		r.attempted++
		ids := make([]int32, 0, len(want))
		t0 := time.Now()
		c := sp.child("wet.open_lazy")
		lz, _, err := wet.Open(bytes.NewReader(t.data), wet.WithLazy())
		c.end()
		tl := seconds(t0)
		if err != nil {
			r.fail("lazy open %s: %v", s.name, err)
			continue
		}
		c = sp.child("query.cfrange")
		n, err := lz.ExtractCFRange(from, to, func(id int) { ids = append(ids, int32(id)) })
		c.end()
		total := seconds(t0)
		if err != nil {
			r.fail("cfrange %s: %v", s.name, err)
			continue
		}
		tot.lazy = append(tot.lazy, tl)
		tot.firstRange = append(tot.firstRange, total-tl)
		tot.first.add(fmt.Sprint(s.name, w), total, 1)
		if n != uint64(len(want)) || !slices.Equal(ids, want) {
			r.wrong("cfrange %s [%d,%d]: %d ids, oracle %d", s.name, from, to, n, len(want))
		}
	}

	// Full control-flow extraction, both directions.
	for _, fwd := range []bool{true, false} {
		r.attempted++
		h := uint64(hashInit)
		t0 := time.Now()
		c := sp.child("query.cf")
		n := tr.ExtractControlFlow(fwd, func(id int) { h = hashStep(h, uint64(id)) })
		c.end()
		d := seconds(t0)
		if fwd {
			tot.cfFwd += d
		} else {
			tot.cfBwd += d
		}
		tot.cf.add(fmt.Sprint(s.name, fwd), d, float64(n))
		if n != o.stmts() || h != o.cfHash(fwd) {
			r.wrong("cf %s forward=%v: %d statements, oracle %d (or sequence differs)", s.name, fwd, n, o.stmts())
		}
	}

	if first {
		r.profileTraces(t, tr, tot, sp)
	}

	// Capped backward slices at the seeded criteria, then one uncapped
	// slice (untimed) that must equal the oracle's exactly.
	keys := nodeKeys(tr)
	node := make(map[pathKey]int, len(keys))
	for i, k := range keys {
		node[k] = i
	}
	instance := func(cr criterion) wet.Instance {
		k, ord := o.instance(cr.ts)
		return wet.Instance{Node: node[k], Pos: cr.pos, Ord: ord}
	}
	before := tr.SeekStats()
	for j, cr := range t.crit {
		r.attempted++
		t0 := time.Now()
		c := sp.child("query.slice")
		res, err := tr.Backward(instance(cr), r.cfg.sliceCap)
		c.end()
		d := seconds(t0)
		if err != nil {
			r.fail("slice %s stmt %d ts %d: %v", s.name, cr.stmt, cr.ts, err)
			continue
		}
		tot.slice.add(fmt.Sprint(s.name, j), d, 1)
		tot.sliceS += d
		tot.sliceInst += len(res.Instances)
		tot.sliceEdges += res.Edges
		// The slice is deterministic: once an answer agreed with the
		// oracle, every later one must equal it.
		got := sliceSet(res.Instances, keys, o)
		if t.got[j] != nil {
			if !slices.Equal(got, t.got[j]) {
				r.wrong("slice %s stmt %d ts %d: %d instances, %d before (or members differ)", s.name, cr.stmt, cr.ts, len(got), len(t.got[j]))
			}
		} else if err := o.checkSlice(got, cr.ts, cr.pos, r.cfg.sliceCap); err != nil {
			r.wrong("slice %s stmt %d ts %d: %v", s.name, cr.stmt, cr.ts, err)
		} else {
			t.got[j] = got
		}
	}
	d := tr.SeekStats().Sub(before)
	tot.seek.Seeks += d.Seeks
	tot.seek.Restores += d.Restores
	tot.seek.Steps += d.Steps

	if !first {
		return
	}
	r.attempted++
	res, err := tr.Backward(instance(t.full), 0)
	if err != nil {
		r.fail("slice %s stmt %d ts %d: %v", s.name, t.full.stmt, t.full.ts, err)
		return
	}
	if t.want == nil {
		t.want = o.backward(t.full.ts, t.full.pos)
	}
	if got := sliceSet(res.Instances, keys, o); !slices.Equal(got, t.want) {
		r.wrong("slice %s stmt %d ts %d: %d instances, oracle %d (or members differ)", s.name, t.full.stmt, t.full.ts, len(got), len(t.want))
	}
}

// profileTraces asks tr for every value trace and every address trace.
func (r *run) profileTraces(t *target, tr *wet.Trace, tot *analyzeTotals, sp spanRef) {
	s, o := t.s, t.s.or
	for _, kind := range []string{"query.value_trace", "query.addr_trace"} {
		ids, want := s.defStmts, o.vals
		if kind == "query.addr_trace" {
			ids, want = s.memStmts, o.addrs
		}
		for _, id := range ids {
			r.attempted++
			h := uint64(hashInit)
			emit := func(x wet.Sample) { h = hashStep(hashStep(h, uint64(x.TS)), uint64(x.Value)) }
			t0 := time.Now()
			c := sp.child(kind)
			var n uint64
			var err error
			if kind == "query.value_trace" {
				n, err = tr.ValueTrace(id, emit)
			} else {
				n, err = tr.AddressTrace(id, emit)
			}
			c.end()
			d := time.Since(t0).Seconds()
			if err != nil {
				r.fail("%s %s stmt %d: %v", kind, s.name, id, err)
				continue
			}
			if kind == "query.value_trace" {
				tot.valS += d
			} else {
				tot.addrS += d
			}
			tot.profile.add(fmt.Sprint(s.name, kind, id), d, float64(n))
			if w := want[id]; n != uint64(len(w)) || h != sampleHash(w) {
				r.wrong("%s %s stmt %d: %d samples, oracle %d (or samples differ)", kind, s.name, id, n, len(w))
			}
		}
	}
}

func (t *analyzeTotals) metrics(m map[string]float64) {
	m["open_ms"] = median(t.open.typical()) * 1e3
	m["first_answer_ms"] = median(t.first.typical()) * 1e3
	m["cf_mstmt_per_s"] = t.cf.rate() / 1e6
	m["profile_msample_per_s"] = t.profile.rate() / 1e6
	m["slice_ms"] = median(t.slice.typical()) * 1e3
}

// layerMetrics reports the read-path layers per pass.
func (t *analyzeTotals) layerMetrics(m map[string]float64) {
	p := float64(max(t.passes, 1))
	m["open.eager_s"] = median(t.open.typical())
	m["open.lazy_s"] = median(t.lazy)
	m["query.first_cfrange_s"] = median(t.firstRange)
	m["query.cf_forward_s"] = t.cfFwd / p / float64(t.reps)
	m["query.cf_backward_s"] = t.cfBwd / p / float64(t.reps)
	m["query.value_trace_s"] = t.valS / p
	m["query.addr_trace_s"] = t.addrS / p
	m["query.slice_s"] = t.sliceS / p / float64(t.reps)
	m["query.slice_instances"] = float64(t.sliceInst) / p / float64(t.reps)
	m["query.slice_edges"] = float64(t.sliceEdges) / p / float64(t.reps)
	seekMetrics(m, "cursor.", t.seek, p*float64(t.reps))
}

func seekMetrics(m map[string]float64, prefix string, s wet.SeekStats, passes float64) {
	m[prefix+"seeks"] = float64(s.Seeks) / passes
	m[prefix+"steps_per_seek"] = ratio(float64(s.Steps), float64(s.Seeks))
	m[prefix+"restore_ratio"] = ratio(float64(s.Restores), float64(s.Seeks))
}
