// Command wetperf is the WET benchmark. It runs one workload through the
// public wet facade and the in-process wetd stack, checks every answer
// against an oracle built from the raw interpreter events, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	wetperf --workload record --seed 1 --seconds 50 --trace 0
//
// Workloads: record, serve (see README.md). With
// --trace 1 the run is traced: untraced and traced rounds alternate, spans
// are recorded around every layer call the traced rounds make, and the
// run prints both sets' end-to-end figures, then the per-layer metrics,
// each layer's self time and the tracing overhead; its JSON line holds the
// per-layer metrics.
//
//	wetperf --steady 5 --workload serve --seed 1
//
// runs the workload five times on the seed and five times on the next one,
// each in its own process, and prints every end-to-end metric's median,
// quartiles, and spread next to its bound from BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef describes one reported metric. moves names the end-to-end
// metric a per-layer metric should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	moves  string
}

// endToEnd lists the end-to-end metrics. The timing bounds are the widest
// the benchmark allows: on the shared two-CPU machines it runs on, other
// tenants' load moves every timing of a whole run together by 10-20% even
// with per-operation medians, so a tighter bound would reject unchanged
// code. The size and heap figures repeat to well under 10%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "trace_mstmt_per_s", Unit: "Mstmt/s", Better: "higher", Bound: 0.25},
	{Name: "trace_bytes_per_kstmt", Unit: "B/kstmt", Better: "lower", Bound: 0.05},
	{Name: "trace_peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "open_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_answer_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cf_mstmt_per_s", Unit: "Mstmt/s", Better: "higher", Bound: 0.25},
	{Name: "profile_msample_per_s", Unit: "Msample/s", Better: "higher", Bound: 0.25},
	{Name: "slice_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "serve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// spanNames are the layer boundaries the traced run records spans at; each
// gets a self-time metric.
var spanNames = []string{
	"record", "analyze", "layers",
	"wet.run", "wet.save", "wet.open", "wet.open_lazy",
	"query.cfrange", "query.cf", "query.value_trace", "query.addr_trace", "query.slice",
	"http.request", "serve.query",
	"interp.run", "core.builder", "stream.sizer", "stream.encode", "core.freeze", "wetio.save",
	"core.streaming", "stream.drain", "wetio.open_segments",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"interp.mstmt_per_s", "Mstmt/s", "higher", 0, "trace_mstmt_per_s"},
		{"builder.s", "s", "lower", 0, "trace_mstmt_per_s"},
		{"builder.ns_per_stmt", "ns", "lower", 0, "trace_mstmt_per_s"},
		{"builder.alloc_mb", "MB", "lower", 0, "trace_peak_heap_mb"},
		{"builder.dyn_deps", "count", "lower", 0, "trace_mstmt_per_s"},
		{"epoch.build_s", "s", "lower", 0, "trace_mstmt_per_s"},
		{"epoch.epochs", "count", "lower", 0, "trace_peak_heap_mb"},
		{"freeze.s", "s", "lower", 0, "trace_mstmt_per_s"},
		{"freeze.sizer_s", "s", "lower", 0, "trace_mstmt_per_s"},
		{"freeze.encode_s", "s", "lower", 0, "trace_mstmt_per_s"},
		{"freeze.streams", "count", "lower", 0, "trace_mstmt_per_s"},
		{"freeze.inferable_edges", "count", "higher", 0, "trace_mstmt_per_s"},
		{"freeze.shared_edges", "count", "higher", 0, "trace_mstmt_per_s"},
		{"t2.ts_bytes", "bytes", "lower", 0, "trace_bytes_per_kstmt"},
		{"t2.vals_bytes", "bytes", "lower", 0, "trace_bytes_per_kstmt"},
		{"t2.edges_bytes", "bytes", "lower", 0, "trace_bytes_per_kstmt"},
		{"save.s", "s", "lower", 0, "trace_mstmt_per_s"},
		{"open.eager_s", "s", "lower", 0, "open_ms"},
		{"open.lazy_s", "s", "lower", 0, "first_answer_ms"},
		{"open.segments_decoded_per_answer", "count", "lower", 0, "first_answer_ms"},
		{"cursor.forward_mvals_per_s", "Mval/s", "higher", 0, "cf_mstmt_per_s"},
		{"cursor.backward_mvals_per_s", "Mval/s", "higher", 0, "cf_mstmt_per_s"},
		{"cursor.seeks", "count", "lower", 0, "slice_ms"},
		{"cursor.steps_per_seek", "count", "lower", 0, "slice_ms"},
		{"cursor.restore_ratio", "ratio", "higher", 0, "slice_ms"},
		{"cursor.serve_seeks", "count", "lower", 0, "serve_p50_ms"},
		{"cursor.serve_steps_per_seek", "count", "lower", 0, "serve_p50_ms"},
		{"cursor.serve_restore_ratio", "ratio", "higher", 0, "serve_p50_ms"},
		{"query.cf_forward_s", "s", "lower", 0, "cf_mstmt_per_s"},
		{"query.cf_backward_s", "s", "lower", 0, "cf_mstmt_per_s"},
		{"query.value_trace_s", "s", "lower", 0, "profile_msample_per_s"},
		{"query.addr_trace_s", "s", "lower", 0, "profile_msample_per_s"},
		{"query.slice_s", "s", "lower", 0, "slice_ms"},
		{"query.slice_instances", "count", "lower", 0, "slice_ms"},
		{"query.slice_edges", "count", "lower", 0, "slice_ms"},
		{"query.first_cfrange_s", "s", "lower", 0, "first_answer_ms"},
		{"corpus.hits", "count", "higher", 0, "serve_qps"},
		{"corpus.misses", "count", "lower", 0, "serve_p99_ms"},
		{"corpus.evictions", "count", "lower", 0, "serve_p99_ms"},
		{"corpus.hit_rate", "ratio", "higher", 0, "serve_qps"},
		{"corpus.resident_mb", "MB", "lower", 0, "serve_qps"},
		{"serve.query_ms", "ms", "lower", 0, "serve_p50_ms"},
		{"serve.http_ms", "ms", "lower", 0, "serve_p50_ms"},
		{"serve.shed", "count", "lower", 0, "serve_qps"},
		{"trace.overhead_pct", "%", "lower", 0, ""},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{"self." + n + "_s", "s", "lower", 0, ""})
	}
	return defs
}()

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"record", "single-epoch write path: wet.Run build+freeze and Save of five programs each round, then the read and serve stages over those v3 containers"},
	{"serve", "read and serve stages over small-epoch v4 containers, segment budget far below their decoded size (decode, cache LRU, admission); requests are a synthetic coverage mix"},
}

func main() {
	wl := flag.String("workload", "", "workload: record, serve")
	seed := flag.Int64("seed", 1, "seed for slice criteria, windows, and requests")
	secs := flag.Float64("seconds", 50, "length of the timed loop")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times per seed on two seeds and print the spread of each metric")
	spec := flag.Bool("spec", false, "print the benchmark description (BENCHMARK.json)")
	flag.Parse()

	switch {
	case *spec:
		os.Stdout.Write(specJSON())
		return
	case *steady > 0:
		if err := steadiness(*wl, *seed, *secs, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "wetperf:", err)
			os.Exit(1)
		}
		return
	}
	if !knownWorkload(*wl) {
		fmt.Fprintf(os.Stderr, "wetperf: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	r := &run{cfg: fullConfig(), seed: *seed, seconds: *secs, start: time.Now()}
	if *traced == 1 {
		r.tr = newTracer()
	}
	res, err := r.execute(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetperf:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(outDir(), fmt.Sprintf("spans-%s-%d.jsonl", *wl, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, "wetperf: spans:", err)
			os.Exit(1)
		}
		printLayers(res.metrics)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// outDir is where a traced run writes its spans: $WETPERF_OUT, which
// run.sh sets to its build directory, or .bench_build.
func outDir() string {
	if d := os.Getenv("WETPERF_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
	metrics   map[string]float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation.
type run struct {
	cfg     config
	seed    int64
	seconds float64
	tr      *tracer // nil: untraced

	attempted, failed int
	mismatches        int
	start             time.Time
}

// logf reports progress on standard error.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wetperf: %6.2fs "+format+"\n", append([]any{seconds(r.start)}, args...)...)
}

// fail counts an operation that returned an error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "failed: "+format+"\n", args...)
	}
}

// wrong records an answer that disagrees with the oracle.
func (r *run) wrong(format string, args ...any) {
	r.mismatches++
	if r.mismatches <= 10 {
		fmt.Fprintf(os.Stderr, "wrong: "+format+"\n", args...)
	}
}

// execute runs the workload and collects the metrics the run reports:
// the end-to-end metrics, or with a tracer the per-layer ones.
func (r *run) execute(name string) (*result, error) {
	m, err := r.workload(name)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := &result{Correct: r.mismatches == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricJSON{}, metrics: m}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// setups runs the set-up cfg.setups times, keeping the last, and reports
// the median as setup_s.
func setups[T any](r *run, m map[string]float64, setup func() (T, error)) (T, error) {
	var out T
	var times []float64
	for i := 0; i < r.cfg.setups; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, err
		}
		times = append(times, seconds(t0))
		out = v
	}
	m["setup_s"] = median(times)
	return out, nil
}

// recordSet records every subject once (as a set-up step) and returns the
// containers.
func (r *run) recordSet(subs []*subject, epoch uint32, tot *recordTotals) ([][]byte, error) {
	var out [][]byte
	for _, s := range subs {
		sp := r.tr.op("record")
		rec, err := recordOne(s, epoch, sp)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", s.name, err)
		}
		tot.add(s.name, rec)
		out = append(out, rec.data)
	}
	return out, nil
}

// totals collects the figures of one set of timed rounds.
type totals struct {
	rec *recordTotals
	an  *analyzeTotals
	sv  *serveTotals
	// roundS holds each round's wall time.
	roundS []float64
}

func newTotals(cfg config, rec *recordTotals) *totals {
	if rec == nil {
		rec = newRecordTotals()
	}
	return &totals{rec: rec, an: newAnalyzeTotals(cfg.reps), sv: &serveTotals{}}
}

func (t *totals) metrics(m map[string]float64) {
	t.rec.metrics(m)
	t.an.metrics(m)
	t.sv.metrics(m)
}

// workload runs one workload. A round of the timed loop runs every stage
// the workload exercises, so each operation repeats once per round and its
// repetitions are spread over the whole loop: record traces (single epoch)
// and saves every program, then analyzes and serves the warm-up round's
// containers with everything resident; serve runs the read-path stages
// over small-epoch containers that the streaming pipeline saved at
// set-up, under a segment budget far below their decoded size, and takes
// its write-path figures from the set-up recordings.
func (r *run) workload(name string) (map[string]float64, error) {
	cfg := r.cfg
	m := map[string]float64{}
	recording := name == "record"
	epoch, budgetDiv := uint32(0), uint64(0)
	if !recording {
		epoch, budgetDiv = cfg.serveEpochTS, cfg.budgetDiv
	}

	// setupRec holds the heap pass's peak, and for serve the set-up
	// recordings, which give its write-path figures.
	setupRec := newRecordTotals()
	r.heapPass(cfg.progs, epoch, setupRec)
	r.logf("heap pass done")

	// Set-up: programs and oracles, and for serve the saved containers and
	// the served corpus.
	type state struct {
		subs []*subject
		data [][]byte
		sv   *served
	}
	s, err := setups(r, m, func() (state, error) {
		subs, err := newSubjects(cfg)
		if err != nil || recording {
			return state{subs: subs}, err
		}
		data, err := r.recordSet(subs, epoch, setupRec)
		if err != nil {
			return state{}, err
		}
		sv, err := newServed(cfg, subs, data, r.seed, budgetDiv)
		return state{subs, data, sv}, err
	})
	if err != nil {
		return nil, err
	}
	subs, data, sv := s.subs, s.data, s.sv
	r.logf("set-up done")

	newSet := func() *totals {
		if recording {
			t := newTotals(cfg, nil)
			t.rec.peakHeap = setupRec.peakHeap
			return t
		}
		return newTotals(cfg, setupRec)
	}

	// The warm-up round, untimed and left out of every figure, does the
	// one-time work: the recordings later rounds must reproduce, the
	// corpus and request list, the targets, each container's validation,
	// and the expected uncapped slices.
	tr := r.tr
	r.tr = nil
	warm := newSet()
	if recording {
		data = r.recordRound(subs, epoch, nil, warm.rec)
	}
	if sv == nil {
		if sv, err = newServed(cfg, subs, data, r.seed, budgetDiv); err != nil {
			return nil, err
		}
	}
	ts := newTargets(cfg, subs, data, r.seed)
	front := startFront(sv)
	defer func() {
		if front != nil {
			front.stop()
		}
	}()
	r.logf("corpus: %d segments, %.1f MB decoded, budget %.2f MB, %d requests per round from %d clients",
		sv.c.Stats().Segments, float64(sv.decoded)/(1<<20), float64(sv.c.Budget())/(1<<20), len(sv.reqs), clients())
	r.analyzeRound(ts, true, warm.an)
	r.serveRound(sv, front, warm.sv)
	r.logf("warm-up round done")

	// The timed loop. A traced run alternates untraced and traced rounds,
	// one pair at a time, so that both sets see the same machine; the
	// tracing overhead compares the two sets.
	sets := []*totals{newSet()}
	if tr != nil {
		sets = append(sets, newSet())
	}
	// The loop ends when another pass would overrun --seconds, so a run
	// takes no longer than asked, and always runs at least one pass.
	t0 := time.Now()
	n := 0
	for {
		p0 := time.Now()
		for i, set := range sets {
			r.tr = nil
			if i == 1 {
				r.tr = tr
			}
			rt0 := time.Now()
			if recording {
				r.recordRound(subs, epoch, data, set.rec)
			}
			r.analyzeRound(ts, false, set.an)
			r.serveRound(sv, front, set.sv)
			set.roundS = append(set.roundS, seconds(rt0))
			n++
		}
		if seconds(t0)+seconds(p0) > r.seconds {
			break
		}
	}
	r.tr = tr
	r.logf("timed loop: %d rounds in %.2fs", n, seconds(t0))
	sets[0].metrics(m)
	if r.tr == nil {
		return m, nil
	}

	// Traced run: the traced rounds' end-to-end figures next to the
	// untraced ones, in-process queries, layer probes, and the reductions.
	traced := map[string]float64{"setup_s": m["setup_s"]}
	sets[1].metrics(traced)
	printOverhead(m, traced)
	front.stop()
	front = nil
	for i := 0; i < cfg.reps; i++ {
		r.queryRound(sv, sets[1].sv)
	}
	var lt layerTotals
	for i, s := range subs {
		if err := r.layerProbe(s, data[i], cfg.recordEpochTS, name != "record", ts[i], &lt); err != nil {
			return nil, fmt.Errorf("layers %s: %w", s.name, err)
		}
	}
	lm := map[string]float64{}
	lt.metrics(lm)
	sets[1].an.layerMetrics(lm)
	sets[1].sv.layerMetrics(lm)
	lm["trace.overhead_pct"] = (median(sets[1].roundS)/median(sets[0].roundS) - 1) * 100
	self := r.tr.selfTimes()
	for _, n := range spanNames {
		lm["self."+n+"_s"] = self[n]
	}
	return lm, nil
}

// printOverhead prints the traced run's end-to-end figures: those of the
// untraced rounds, those of the traced rounds, and the difference.
func printOverhead(untraced, traced map[string]float64) {
	fmt.Printf("%-36s %14s %14s %9s\n", "end-to-end metric", "untraced", "traced", "change")
	for _, d := range endToEnd {
		u, t := untraced[d.Name], traced[d.Name]
		fmt.Printf("%-36s %14.6g %14.6g %+8.1f%%\n", d.Name, u, t, ratio(t-u, u)*100)
	}
	fmt.Println()
}

// printLayers prints the traced run's table: every per-layer metric and
// the end-to-end metric it should move.
func printLayers(m map[string]float64) {
	fmt.Printf("%-36s %14s  %-9s %s\n", "per-layer metric", "value", "unit", "moves")
	for _, d := range perLayer {
		fmt.Printf("%-36s %14.6g  %-9s %s\n", d.Name, m[d.Name], d.Unit, d.moves)
	}
}

// specJSON is the benchmark description this program implements; the
// repository's BENCHMARK.json is exactly this text.
func specJSON() []byte {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var pl []layer
	for _, d := range perLayer {
		pl = append(pl, layer{d.Name, d.Unit, d.Better})
	}
	spec := map[string]any{
		"command":     []string{"bash", "wetperf/run.sh"},
		"paths":       []string{"wetperf"},
		"run_seconds": 50,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   pl,
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // only maps, slices, strings, and numbers
	}
	return append(out, '\n')
}

// opTimes keeps the time of every repetition of each distinct operation
// of a run, and the work the operation does. The write-path and analyze
// timings take each operation's median repetition: the machines this runs
// on are shared, and other tenants' load moves a run's fastest repetitions
// by more than its typical ones, since a quiet stretch of a few seconds
// that some runs catch and others miss sets a minimum but not a median.
type opTimes struct {
	secs map[string][]float64
	work map[string]float64
}

func newOpTimes() opTimes {
	return opTimes{secs: map[string][]float64{}, work: map[string]float64{}}
}

func (t opTimes) add(op string, secs, work float64) {
	t.secs[op] = append(t.secs[op], secs)
	t.work[op] = work
}

// typical returns each operation's median repetition, in operation order.
func (t opTimes) typical() []float64 {
	ops := make([]string, 0, len(t.secs))
	for op := range t.secs {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = median(t.secs[op])
	}
	return out
}

// rate is the work done per second of the operations' median repetitions.
func (t opTimes) rate() float64 {
	var work float64
	for _, w := range t.work {
		work += w
	}
	return work / sum(t.typical())
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
