package main

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"wet"
	"wet/internal/workload"
)

// heapWatch samples the live heap (as of the latest collection) while an
// operation runs and keeps the largest value seen.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	base uint64
	peak uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// watchHeap collects garbage, takes the live heap as the baseline, and
// starts sampling every millisecond.
func watchHeap() *heapWatch {
	runtime.GC()
	h := &heapWatch{stop: make(chan struct{}), base: liveHeap()}
	h.peak = h.base
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak live heap above the baseline.
func (h *heapWatch) end() uint64 {
	close(h.stop)
	h.done.Wait()
	h.peak = max(h.peak, liveHeap())
	return h.peak - h.base
}

// recorded is one program traced, frozen, and saved.
type recorded struct {
	data  []byte
	secs  float64
	stmts uint64
}

// recordOne runs wet.Run (single-epoch build then freeze, or the streaming
// pipeline when epoch > 0) and Trace.Save on one program.
func recordOne(s *subject, epoch uint32, sp spanRef) (*recorded, error) {
	opts := []wet.RunOption{wet.WithInputs(s.inputs...)}
	if epoch > 0 {
		opts = append(opts, wet.WithEpochTS(epoch))
	}
	t0 := time.Now()
	c := sp.child("wet.run")
	tr, res, err := wet.Run(s.prog, opts...)
	c.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	c = sp.child("wet.save")
	err = tr.Save(&buf)
	c.end()
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	return &recorded{data: buf.Bytes(), secs: secs, stmts: res.Steps}, nil
}

// recordTotals accumulates the write-path end-to-end figures.
type recordTotals struct {
	ops      opTimes // per program: seconds, statements
	stmts    uint64
	bytes    uint64
	peakHeap float64 // largest peak live heap above the baseline, MB
}

func newRecordTotals() *recordTotals { return &recordTotals{ops: newOpTimes()} }

func (t *recordTotals) add(name string, r *recorded) {
	t.ops.add(name, r.secs, float64(r.stmts))
	t.stmts += r.stmts
	t.bytes += uint64(len(r.data))
}

func (t *recordTotals) metrics(m map[string]float64) {
	m["trace_mstmt_per_s"] = t.ops.rate() / 1e6
	m["trace_bytes_per_kstmt"] = float64(t.bytes) * 1000 / float64(t.stmts)
	m["trace_peak_heap_mb"] = t.peakHeap
}

// recordRound records every subject once. With first nil (the warm-up
// round) it returns the containers, which the analyze pass checks against
// the oracle; every later round must reproduce them byte for byte.
func (r *run) recordRound(subs []*subject, epoch uint32, first [][]byte, tot *recordTotals) [][]byte {
	out := first
	for i, s := range subs {
		r.attempted++
		runtime.GC()
		sp := r.tr.op("record")
		rec, err := recordOne(s, epoch, sp)
		sp.end()
		if err != nil {
			r.fail("record %s: %v", s.name, err)
			if first == nil {
				out = append(out, nil)
			}
			continue
		}
		tot.add(s.name, rec)
		if first == nil {
			out = append(out, rec.data)
		} else if sha256.Sum256(rec.data) != sha256.Sum256(first[i]) {
			r.wrong("record %s: container differs from the first round's", s.name)
		}
	}
	return out
}

// heapGCPercent is the collector setting of the heap pass. Collections
// then trigger every tenth of growth in allocation volume, not time, so
// the sampled post-collection live heaps land at nearly the same points
// of the pipeline on every run and their maximum tracks the true peak.
const heapGCPercent = 10

// heapPass records every program once, untimed, with frequent
// collections, and keeps the largest peak live heap above the baseline. It
// runs before the set-up so that the baseline holds little besides the
// program itself and collections stay cheap and fine-grained.
func (r *run) heapPass(progs []progSpec, epoch uint32, tot *recordTotals) {
	old := debug.SetGCPercent(heapGCPercent)
	defer debug.SetGCPercent(old)
	for _, ps := range progs {
		wl, err := workload.ByName(ps.name)
		if err != nil {
			r.fail("record %s: %v", ps.name, err)
			continue
		}
		s := &subject{name: ps.name}
		s.prog, s.inputs = wl.Build(ps.scale)
		r.attempted++
		hw := watchHeap()
		_, err = recordOne(s, epoch, spanRef{ix: -1})
		peak := hw.end()
		if err != nil {
			r.fail("record %s: %v", s.name, err)
			continue
		}
		tot.peakHeap = max(tot.peakHeap, float64(peak)/(1<<20))
	}
}
