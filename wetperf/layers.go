package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"wet"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/stream"
	"wet/internal/trace"
	"wet/internal/wetio"
)

// layerTotals accumulates the write-path and cursor decomposition that the
// traced run measures by calling each layer's public functions directly.
type layerTotals struct {
	stmts                    uint64
	interpS, builderS        float64 // builderS: interp+builder minus interp alone
	builderAlloc             uint64
	dynDeps                  uint64
	epochS                   float64 // streaming build minus interp alone
	epochs                   int
	freezeS, sizerS, encodeS float64
	streams                  int
	inferable, shared        int
	t2TS, t2Vals, t2Edges    uint64
	saveS                    float64
	fwdVals, bwdVals         uint64
	fwdS, bwdS               float64
	segsDecoded              []float64
}

func seconds(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// layerProbe decomposes one subject's write path, and drains and lazily
// answers from its container. The tier-2 component sizes come from the
// single-epoch freeze when segmented is false and from the streaming build
// otherwise, matching the containers the workload records.
func (r *run) layerProbe(s *subject, data []byte, epoch uint32, segmented bool, t *target, lt *layerTotals) error {
	sp := r.tr.op("layers")
	defer sp.end()
	in := interp.Options{Inputs: s.inputs}

	// Interpreter alone.
	c := sp.child("interp.run")
	t0 := time.Now()
	in.Sink = trace.NewCounting(nil)
	res, err := interp.Run(s.static, in)
	interpS := seconds(t0)
	c.end()
	if err != nil {
		return err
	}
	lt.stmts += res.Steps
	lt.interpS += interpS

	// Interpreter plus the tier-1 builder.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c = sp.child("core.builder")
	t0 = time.Now()
	b := core.NewBuilder(s.static)
	cnt := trace.NewCounting(b)
	in.Sink = cnt
	if _, err := interp.Run(s.static, in); err != nil {
		c.end()
		return err
	}
	w, err := b.Finish()
	lt.builderS += seconds(t0) - interpS
	c.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	w.Raw = cnt.RawStats
	lt.builderAlloc += m1.TotalAlloc - m0.TotalAlloc
	lt.dynDeps += cnt.DynDD + cnt.DynCD

	// Freeze and save. The tier-1 label arrays are kept to time the
	// compressors on afterwards.
	var arrays [][]uint32
	for _, n := range w.Nodes {
		arrays = append(arrays, n.TS)
		for _, g := range n.Groups {
			arrays = append(arrays, g.Pattern)
			arrays = append(arrays, g.UVals...)
		}
	}
	edgeLabels := make([][2][]uint32, len(w.Edges))
	for i, e := range w.Edges {
		edgeLabels[i] = [2][]uint32{e.DstOrd, e.SrcOrd}
	}
	c = sp.child("core.freeze")
	t0 = time.Now()
	rep, err := w.FreezeErr(core.FreezeOptions{})
	lt.freezeS += seconds(t0)
	c.end()
	if err != nil {
		return err
	}
	for i, e := range w.Edges {
		switch {
		case e.Inferable:
			lt.inferable++
		case e.SharedWith >= 0:
			lt.shared++
		case e.Diagonal:
			arrays = append(arrays, edgeLabels[i][0])
		default:
			arrays = append(arrays, edgeLabels[i][0], edgeLabels[i][1])
		}
	}

	// The compressors, serially, over the label arrays the freeze
	// compressed: the dry-run sizer picks a spec, the encoder applies it.
	sc := stream.NewScratch()
	specs := make([]stream.Spec, len(arrays))
	c = sp.child("stream.sizer")
	t0 = time.Now()
	for i, a := range arrays {
		specs[i] = stream.BestSpec(a, sc)
	}
	lt.sizerS += seconds(t0)
	c.end()
	sc.Release()
	c = sp.child("stream.encode")
	t0 = time.Now()
	for i, a := range arrays {
		stream.CompressK(a, specs[i], 0)
	}
	lt.encodeS += seconds(t0)
	c.end()
	lt.streams += len(arrays)

	var buf bytes.Buffer
	c = sp.child("wetio.save")
	t0 = time.Now()
	err = wetio.Save(&buf, w)
	lt.saveS += seconds(t0)
	c.end()
	if err != nil {
		return err
	}

	// The streaming pipeline: epochs sealed on the freeze pool.
	c = sp.child("core.streaming")
	t0 = time.Now()
	in.Sink = nil
	ws, srep, _, err := core.BuildStreaming(s.static, in, core.FreezeOptions{EpochTS: epoch})
	lt.epochS += seconds(t0) - interpS
	c.end()
	if err != nil {
		return err
	}
	lt.epochs += ws.Epochs
	if segmented {
		rep = srep
	}
	lt.t2TS += rep.T2TS
	lt.t2Vals += rep.T2Vals
	lt.t2Edges += rep.T2Edges

	// Cursor drains of every node's timestamp sequence, both directions.
	tr, _, err := wet.Open(bytes.NewReader(data))
	if err != nil {
		return err
	}
	chunk := make([]uint32, 256)
	for _, fwd := range []bool{true, false} {
		c = sp.child("stream.drain")
		t0 = time.Now()
		var vals uint64
		for _, n := range tr.WET().Nodes {
			seq := tr.WET().TSSeq(n, core.Tier2)
			if fwd {
				for k := core.SeqNextN(seq, chunk); k > 0; k = core.SeqNextN(seq, chunk) {
					vals += uint64(k)
				}
			} else {
				seq.(core.Seeker).Seek(seq.Len())
				for k := core.SeqPrevN(seq, chunk); k > 0; k = core.SeqPrevN(seq, chunk) {
					vals += uint64(k)
				}
			}
		}
		d := seconds(t0)
		c.end()
		if vals != uint64(s.or.time()) {
			r.wrong("drain %s forward=%v: %d timestamps, oracle %d", s.name, fwd, vals, s.or.time())
		}
		if fwd {
			lt.fwdVals, lt.fwdS = lt.fwdVals+vals, lt.fwdS+d
		} else {
			lt.bwdVals, lt.bwdS = lt.bwdVals+vals, lt.bwdS+d
		}
	}

	// Segments a lazy, segment-indexed open decodes to give one answer.
	for _, w := range t.wins {
		ss := wet.NewSegmentSource()
		c = sp.child("wetio.open_segments")
		sg, _, err := wet.Open(bytes.NewReader(data), wet.WithSegments(ss))
		if err == nil {
			_, err = sg.ExtractCFRange(w[0], w[1], nil)
		}
		c.end()
		if err != nil {
			return fmt.Errorf("segment open: %w", err)
		}
		lt.segsDecoded = append(lt.segsDecoded, float64(ss.ResidentCount()))
	}
	return nil
}

func (lt *layerTotals) metrics(m map[string]float64) {
	m["interp.mstmt_per_s"] = float64(lt.stmts) / lt.interpS / 1e6
	m["builder.s"] = lt.builderS
	m["builder.ns_per_stmt"] = lt.builderS * 1e9 / float64(lt.stmts)
	m["builder.alloc_mb"] = float64(lt.builderAlloc) / (1 << 20)
	m["builder.dyn_deps"] = float64(lt.dynDeps)
	m["epoch.build_s"] = lt.epochS
	m["epoch.epochs"] = float64(lt.epochs)
	m["freeze.s"] = lt.freezeS
	m["freeze.sizer_s"] = lt.sizerS
	m["freeze.encode_s"] = lt.encodeS
	m["freeze.streams"] = float64(lt.streams)
	m["freeze.inferable_edges"] = float64(lt.inferable)
	m["freeze.shared_edges"] = float64(lt.shared)
	m["t2.ts_bytes"] = float64(lt.t2TS)
	m["t2.vals_bytes"] = float64(lt.t2Vals)
	m["t2.edges_bytes"] = float64(lt.t2Edges)
	m["save.s"] = lt.saveS
	m["cursor.forward_mvals_per_s"] = float64(lt.fwdVals) / lt.fwdS / 1e6
	m["cursor.backward_mvals_per_s"] = float64(lt.bwdVals) / lt.bwdS / 1e6
	m["open.segments_decoded_per_answer"] = median(lt.segsDecoded)
}
