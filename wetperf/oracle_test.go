package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"wet/internal/asm"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/trace"
)

// accessLog records the addresses the interpreter computes for every load
// and store, per statement, in execution order.
type accessLog map[int][]int64

func (a accessLog) Branch(*ir.Stmt, bool) {}
func (a accessLog) Access(st *ir.Stmt, addr int64, _ bool) {
	a[st.ID] = append(a[st.ID], addr)
}

// TestOracleMatchesRecording checks every answer the oracle derives against
// the complete event stream of trace.Recording and the interpreter's own
// address computations.
func TestOracleMatchesRecording(t *testing.T) {
	for _, name := range []string{"collatz.wir", "matmul.wir", "strsearch.wir"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", "testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			p, err := asm.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			st, err := interp.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			in := []int64{3, 1, 4}
			rec := &trace.Recording{}
			acc := accessLog{}
			if _, err := interp.Run(st, interp.Options{Inputs: in, Sink: rec, Arch: acc}); err != nil {
				t.Fatal(err)
			}
			o := newOracle(p)
			if _, err := interp.Run(st, interp.Options{Inputs: in, Sink: o}); err != nil {
				t.Fatal(err)
			}
			o.finish()
			checkOracle(t, p, rec, acc, o)
		})
	}
}

func checkOracle(t *testing.T, p *ir.Program, rec *trace.Recording, acc accessLog, o *oracle) {
	t.Helper()
	ev := rec.Events
	if o.stmts() != uint64(len(ev)) || o.time() != uint32(len(rec.Paths)) {
		t.Fatalf("oracle has %d statements over %d timestamps, recording %d over %d",
			o.stmts(), o.time(), len(ev), len(rec.Paths))
	}

	// Timestamps, positions, and path executions.
	tsOf := make([]uint32, len(ev))
	posOf := make([]int, len(ev))
	execs := map[pathKey]int{}
	start := 0
	for k, pe := range rec.Paths {
		ts := uint32(k + 1)
		key := pathKey{pe.Fn, pe.PathID}
		if gk, ord := o.instance(ts); gk != key || ord != execs[key] {
			t.Fatalf("ts %d: oracle path %v ord %d, recording %v ord %d", ts, gk, ord, key, execs[key])
		}
		if o.tsOfExec(key, execs[key]) != ts {
			t.Fatalf("ts %d: tsOfExec disagrees", ts)
		}
		execs[key]++
		for e := start; e < pe.Upto; e++ {
			tsOf[e], posOf[e] = ts, e-start
		}
		start = pe.Upto
	}

	// Control flow, forward and reverse, and a range.
	fwd, bwd := uint64(hashInit), uint64(hashInit)
	for i := range ev {
		if int(o.stmt[i]) != ev[i].Stmt.ID || o.tsOf(i) != tsOf[i] {
			t.Fatalf("event %d: oracle stmt %d ts %d, recording %d ts %d", i, o.stmt[i], o.tsOf(i), ev[i].Stmt.ID, tsOf[i])
		}
		fwd = hashStep(fwd, uint64(ev[i].Stmt.ID))
		bwd = hashStep(bwd, uint64(ev[len(ev)-1-i].Stmt.ID))
	}
	if o.cfHash(true) != fwd || o.cfHash(false) != bwd {
		t.Fatal("control-flow hashes differ")
	}
	if tm := o.time(); tm >= 3 {
		var want []int32
		for i := range ev {
			if tsOf[i] >= 2 && tsOf[i] <= tm-1 {
				want = append(want, int32(ev[i].Stmt.ID))
			}
		}
		if !slices.Equal(o.cfRange(2, tm-1), want) {
			t.Fatal("cfRange differs from the recording")
		}
	}

	// Per-statement value and address sequences.
	vals := map[int][]sample{}
	addrs := map[int][]sample{}
	for i, e := range ev {
		if e.Stmt.Op.HasDef() {
			vals[e.Stmt.ID] = append(vals[e.Stmt.ID], sample{tsOf[i], int64(int32(e.Value))})
		}
		if e.Stmt.Op == ir.OpLoad || e.Stmt.Op == ir.OpStore {
			k := len(addrs[e.Stmt.ID])
			addrs[e.Stmt.ID] = append(addrs[e.Stmt.ID], sample{tsOf[i], acc[e.Stmt.ID][k]})
		}
	}
	for _, st := range p.Stmts {
		if sampleHash(o.vals[st.ID]) != sampleHash(vals[st.ID]) || len(o.vals[st.ID]) != len(vals[st.ID]) {
			t.Fatalf("stmt %d: value sequence differs", st.ID)
		}
		if sampleHash(o.addrs[st.ID]) != sampleHash(addrs[st.ID]) || len(o.addrs[st.ID]) != len(addrs[st.ID]) {
			t.Fatalf("stmt %d: address sequence differs", st.ID)
		}
	}

	// Backward slices by a plain search over the recorded sources.
	for i := 0; i < len(ev); i += max(1, len(ev)/40) {
		seen := map[int]bool{i: true}
		work := []int{i}
		for len(work) > 0 {
			e := work[len(work)-1]
			work = work[:len(work)-1]
			srcs := append(append([]trace.Inst(nil), ev[e].DDSrcs...), ev[e].CDSrc)
			for _, s := range srcs {
				if s != 0 && !seen[int(s)-1] {
					seen[int(s)-1] = true
					work = append(work, int(s)-1)
				}
			}
		}
		var want []uint64
		for e := range seen {
			want = append(want, packTP(tsOf[e], posOf[e]))
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if got := o.backward(tsOf[i], posOf[i]); !slices.Equal(got, want) {
			t.Fatalf("slice of event %d: oracle %d instances, recording %d", i, len(got), len(want))
		}
		if small := o.backwardUpTo(tsOf[i], posOf[i], len(want)); !slices.Equal(small, want) {
			t.Fatalf("slice of event %d: bounded search at its size differs", i)
		}
		if len(want) > 1 {
			if o.backwardUpTo(tsOf[i], posOf[i], len(want)-1) != nil {
				t.Fatalf("slice of event %d: bounded search below its size did not give up", i)
			}
			crit := packTP(tsOf[i], posOf[i])
			if !o.sliceClosed(want, crit) || o.sliceClosed(want[:0], crit) {
				t.Fatalf("slice of event %d: closure check disagrees", i)
			}
		}
	}
}
