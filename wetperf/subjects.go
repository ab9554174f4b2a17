package main

import (
	"fmt"
	"math/rand"
	"sort"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/workload"
)

// progSpec names one workload program and the scale it runs at.
type progSpec struct {
	name  string
	scale int
}

// config sizes every workload. The programs and their scales are fixed;
// the seed only picks slice criteria, windows, and request order.
type config struct {
	progs         []progSpec
	recordEpochTS uint32 // epoch size of the streaming build the layer probe times
	serveEpochTS  uint32 // epoch size of the served corpus
	reps          int    // repetitions per pass of the analyze operations
	opens         int    // eager opens per repetition
	slicesPerProg int    // capped backward slices per program per analyze pass
	sliceCap      int    // instance cap of those slices
	windowTS      uint32 // width of a CF-range window, in timestamps
	firstWindows  int    // CF-range windows of the lazy first answers per program
	windows       int    // served CF-range windows per program per round
	backwards     int    // served capped backward slices per program per round
	traceLimit    int    // limit= on served value and address traces
	sliceMax      int    // max= on served backward slices
	budgetDiv     uint64 // serve segment budget = corpus decoded bytes / budgetDiv
	setups        int    // set-ups per run; setup_s is their median
}

// fullConfig is the benchmark's configuration: five programs at 230k to
// 390k dynamic statements each, small enough that every operation repeats
// several times within a run.
func fullConfig() config {
	return config{
		progs: []progSpec{
			{"gcc", 2}, {"li", 2}, {"gzip", 1}, {"mcf", 1}, {"vortex", 5},
		},
		recordEpochTS: 1 << 12,
		serveEpochTS:  1 << 8,
		reps:          3,
		opens:         3,
		slicesPerProg: 8,
		sliceCap:      4096,
		windowTS:      32,
		firstWindows:  4,
		windows:       100,
		backwards:     100,
		traceLimit:    64,
		sliceMax:      256,
		budgetDiv:     16,
		setups:        5,
	}
}

// subject is one program prepared for a run: its IR, inputs, static
// analysis, and the raw-event oracle of its execution.
type subject struct {
	name   string
	prog   *ir.Program
	inputs []int64
	static *interp.Static
	or     *oracle

	defStmts []int // statements with a value trace
	memStmts []int // loads and stores
}

// newSubject builds the program and records its raw events.
func newSubject(ps progSpec) (*subject, error) {
	wl, err := workload.ByName(ps.name)
	if err != nil {
		return nil, err
	}
	prog, in := wl.Build(ps.scale)
	st, err := interp.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ps.name, err)
	}
	or := newOracle(prog)
	if _, err := interp.Run(st, interp.Options{Inputs: in, Sink: or}); err != nil {
		return nil, fmt.Errorf("%s: oracle run: %w", ps.name, err)
	}
	or.finish()
	s := &subject{name: ps.name, prog: prog, inputs: in, static: st, or: or}
	for _, x := range prog.Stmts {
		if x.Op.HasDef() {
			s.defStmts = append(s.defStmts, x.ID)
		}
		if x.Op == ir.OpLoad || x.Op == ir.OpStore {
			s.memStmts = append(s.memStmts, x.ID)
		}
	}
	return s, nil
}

func newSubjects(cfg config) ([]*subject, error) {
	var out []*subject
	for _, ps := range cfg.progs {
		s, err := newSubject(ps)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// criterion is one slice criterion in oracle coordinates.
type criterion struct {
	stmt int
	ts   uint32
	pos  int
}

// criteria picks n seeded slice criteria among the first frac of the
// trace's events, one per equal stretch so that early and late instances
// are both represented. Only statements with a def port are chosen: their
// slices carry the value's whole derivation.
func (s *subject) criteria(r *rand.Rand, n int, frac float64) []criterion {
	o := s.or
	out := make([]criterion, 0, n)
	span := int(float64(len(o.stmt))*frac) / n
	for i := 0; i < n; i++ {
		for {
			e := i*span + r.Intn(span)
			id := int(o.stmt[e])
			if !s.prog.Stmts[id].Op.HasDef() {
				continue
			}
			ts := o.tsOf(e)
			out = append(out, criterion{stmt: id, ts: ts, pos: e - int(o.pathStart[ts-1])})
			break
		}
	}
	return out
}

// windows picks n seeded CF-range windows, one in each equal stretch of
// the trace, so that the work of answering them barely depends on the
// seed.
func (s *subject) windows(r *rand.Rand, n int, width uint32) [][2]uint32 {
	t := s.or.time()
	width = min(width, t)
	span := (t - width + 1) / uint32(n)
	out := make([][2]uint32, n)
	for i := range out {
		from := 1 + uint32(i)*span + uint32(r.Int63n(int64(max(span, 1))))
		out[i] = [2]uint32{from, from + width - 1}
	}
	return out
}

// executed filters ids to the statements that ran at least once.
func executed(ids []int, seqs map[int][]sample) []int {
	var out []int
	for _, id := range ids {
		if len(seqs[id]) > 0 {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
