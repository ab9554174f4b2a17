package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyConfig runs every stage on two small programs in a few seconds.
func tinyConfig() config {
	return config{
		progs:         []progSpec{{"vortex", 1}, {"li", 1}},
		recordEpochTS: 1 << 10,
		serveEpochTS:  1 << 6,
		reps:          2,
		opens:         2,
		slicesPerProg: 2,
		sliceCap:      256,
		windowTS:      16,
		firstWindows:  2,
		windows:       5,
		backwards:     5,
		traceLimit:    16,
		sliceMax:      32,
		budgetDiv:     16,
		setups:        1,
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := &run{cfg: tinyConfig(), seed: 7, seconds: 0.2, start: time.Now()}
			if traced {
				r.tr = newTracer()
			}
			res, err := r.execute(w.Name)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if !traced && !(res.Metrics[d.Name].Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, res.Metrics[d.Name].Value)
				}
			}
		}
	}
}

// TestChecksCatchWrongAnswers gives the checks deliberately wrong expected
// answers and requires every one of them to be reported.
func TestChecksCatchWrongAnswers(t *testing.T) {
	cfg := tinyConfig()
	corrupt := map[string]func(o *oracle){
		"control flow": func(o *oracle) {
			for i := range o.stmt {
				o.stmt[i] ^= 1
			}
		},
		"values": func(o *oracle) {
			for _, s := range o.vals {
				for i := range s {
					s[i].val++
				}
			}
		},
		"addresses": func(o *oracle) {
			for _, s := range o.addrs {
				for i := range s {
					s[i].val++
				}
			}
		},
		"dependences": func(o *oracle) {
			for i := range o.srcStart {
				o.srcStart[i] = 0
			}
		},
		"paths": func(o *oracle) {
			for _, ts := range o.keyTS {
				for i := range ts {
					ts[i]++
				}
			}
		},
	}
	for name, fn := range corrupt {
		t.Run(name, func(t *testing.T) {
			r := &run{cfg: cfg, seed: 3, start: time.Now()}
			subs, err := newSubjects(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := r.recordSet(subs, cfg.recordEpochTS, newRecordTotals())
			if err != nil {
				t.Fatal(err)
			}
			sv, err := newServed(cfg, subs, data, r.seed, cfg.budgetDiv)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				fn(s.or)
			}
			r.analyzeRound(newTargets(cfg, subs, data, r.seed), true, newAnalyzeTotals(cfg.reps))
			if r.mismatches == 0 {
				t.Error("analyze pass accepted wrong expected answers")
			}
			r.mismatches = 0
			st := &serveTotals{}
			f := startFront(sv)
			r.serveRound(sv, f, st)
			f.stop()
			if r.mismatches == 0 {
				t.Error("serve round accepted wrong expected answers")
			}
			if r.failed != 0 {
				t.Errorf("%d operations failed", r.failed)
			}
		})
	}

	// The record workload compares every round with the first, checked one.
	t.Run("containers", func(t *testing.T) {
		r := &run{cfg: cfg, start: time.Now()}
		subs, err := newSubjects(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := r.recordRound(subs, 0, nil, newRecordTotals())
		first[0] = append([]byte(nil), first[0]...)
		first[0][len(first[0])/2] ^= 1
		r.recordRound(subs, 0, first, newRecordTotals())
		if r.mismatches != 1 {
			t.Errorf("%d mismatches, want 1", r.mismatches)
		}
	})
}

// TestBenchmarkJSON pins the repository's BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatalf("BENCHMARK.json differs from `wetperf --spec`:\n%s", specJSON())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
