package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wet"
	"wet/internal/corpus"
	"wet/internal/serve"
)

// request is one seeded serve request.
type request struct {
	sub    int
	query  string // cfrange, valuetrace, addrtrace, backward
	params url.Values
	from   uint32 // cfrange window
	to     uint32
	stmt   int       // valuetrace, addrtrace
	crit   criterion // backward
	limit  int
}

// served is a corpus of saved containers behind an in-process wetd stack.
type served struct {
	subs    []*subject
	c       *corpus.Corpus
	srv     *serve.Server
	keys    []string    // corpus key per subject
	nodes   [][]pathKey // node -> path per subject
	decoded uint64      // decoded bytes of every segment of the corpus
	reqs    []request
}

// clients is the closed loop's width: one client per CPU.
func clients() int { return runtime.NumCPU() }

// newServed registers the containers in a corpus whose segment budget is
// 1/budgetDiv of the corpus's fully decoded size (0: unlimited, all
// resident), and builds the request list in a seeded order.
func newServed(cfg config, subs []*subject, data [][]byte, seed int64, budgetDiv uint64) (*served, error) {
	var decoded uint64
	for i, d := range data {
		ss := wet.NewSegmentSource()
		if _, _, err := wet.Open(bytes.NewReader(d), wet.WithSegments(ss)); err != nil {
			return nil, fmt.Errorf("serve %s: %w", subs[i].name, err)
		}
		if err := ss.ForceAll(); err != nil {
			return nil, fmt.Errorf("serve %s: %w", subs[i].name, err)
		}
		decoded += ss.ResidentBytes()
	}
	var budget uint64
	if budgetDiv > 0 {
		budget = decoded / budgetDiv
	}
	sv := &served{subs: subs, c: corpus.New(budget), decoded: decoded}
	for i, d := range data {
		e, err := sv.c.Add(subs[i].name, d)
		if err != nil {
			return nil, err
		}
		sv.keys = append(sv.keys, e.Key)
		sv.nodes = append(sv.nodes, nodeKeys(e.Trace))
	}
	sv.srv = serve.New(sv.c, serve.Options{Workers: clients(), Queue: 4 * clients()})

	// Every executed def statement's value trace and every executed load
	// and store's address trace once, plus seeded windows and slice
	// criteria: the work per round barely depends on the seed.
	r := rand.New(rand.NewSource(seed ^ 0x5e7e))
	for i, s := range subs {
		for _, id := range executed(s.defStmts, s.or.vals) {
			sv.addTrace(i, "valuetrace", id, cfg.traceLimit)
		}
		for _, id := range executed(s.memStmts, s.or.addrs) {
			sv.addTrace(i, "addrtrace", id, cfg.traceLimit)
		}
		for k := 0; k < cfg.windows; k++ {
			q := request{sub: i, query: "cfrange", params: url.Values{}}
			w := s.windows(r, 1, cfg.windowTS)[0]
			q.from, q.to = w[0], w[1]
			q.params.Set("from", fmt.Sprint(q.from))
			q.params.Set("to", fmt.Sprint(q.to))
			sv.reqs = append(sv.reqs, q)
		}
		for _, c := range s.criteria(r, cfg.backwards, 1) {
			q := request{sub: i, query: "backward", params: url.Values{}, crit: c, limit: cfg.sliceMax}
			q.params.Set("stmt", fmt.Sprint(c.stmt))
			q.params.Set("ts", fmt.Sprint(c.ts))
			q.params.Set("max", fmt.Sprint(q.limit))
			sv.reqs = append(sv.reqs, q)
		}
	}
	r.Shuffle(len(sv.reqs), func(i, j int) { sv.reqs[i], sv.reqs[j] = sv.reqs[j], sv.reqs[i] })
	return sv, nil
}

func (sv *served) addTrace(sub int, query string, stmt, limit int) {
	q := request{sub: sub, query: query, params: url.Values{}, stmt: stmt, limit: limit}
	q.params.Set("stmt", fmt.Sprint(stmt))
	q.params.Set("limit", fmt.Sprint(limit))
	sv.reqs = append(sv.reqs, q)
}

func (sv *served) path(q request) string {
	return "/v1/traces/" + sv.keys[q.sub] + "/" + q.query + "?" + q.params.Encode()
}

// serveTotals accumulates the serving figures over a set of rounds. The
// client-side figures are taken per round and reported as their median
// over the rounds: a round's throughput is its requests over its wall
// time, and its latency quantiles are taken over every request of the
// round, so a stall that hits one round shows in that round's tail.
type serveTotals struct {
	rounds        int
	qps, p50, p99 []float64 // per round
	queryMed      []float64 // per in-process query round: median Server.Query seconds
	delta         corpus.Stats
	residentBytes uint64
	shed          uint64
}

// httpFront serves a corpus over HTTP on a loopback port to one
// client with at most clients() connections.
type httpFront struct {
	hs     *httptest.Server
	tp     *http.Transport
	client *http.Client
	sv     *served
}

func startFront(sv *served) *httpFront {
	f := &httpFront{hs: httptest.NewServer(sv.srv.Handler()), sv: sv}
	f.tp = &http.Transport{MaxIdleConnsPerHost: clients(), MaxConnsPerHost: clients(), DisableCompression: true}
	f.client = &http.Client{Transport: f.tp}
	return f
}

// stop closes every connection and the server, and waits for its
// handlers to return.
func (f *httpFront) stop() {
	f.tp.CloseIdleConnections()
	f.hs.Close()
}

// serveRound issues every request once from a closed loop of clients()
// clients, then checks every response body against the oracle.
func (r *run) serveRound(sv *served, f *httpFront, tot *serveTotals) {
	n := len(sv.reqs)
	lat := make([]float64, n)
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	before, shed := sv.c.Stats(), sv.srv.PoolStats().Shed
	t0 := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sp := r.tr.op("http.request")
				t := time.Now()
				resp, err := f.client.Get(f.hs.URL + sv.path(sv.reqs[i]))
				if err == nil {
					bodies[i], err = io.ReadAll(resp.Body)
					resp.Body.Close()
					codes[i] = resp.StatusCode
				}
				lat[i] = time.Since(t).Seconds()
				sp.end()
				if err != nil {
					codes[i] = -1
				}
			}
		}()
	}
	wg.Wait()
	wall := seconds(t0)
	tot.add(before, sv.c.Stats(), sv.srv.PoolStats().Shed-shed)
	ok := make([]float64, 0, n)
	for i, q := range sv.reqs {
		r.attempted++
		if codes[i] != http.StatusOK {
			r.fail("serve %s %s: status %d: %.200s", sv.subs[q.sub].name, q.query, codes[i], bodies[i])
			continue
		}
		ok = append(ok, lat[i])
		if err := sv.check(i, bodies[i]); err != nil {
			r.wrong("serve %s %s %s: %v", sv.subs[q.sub].name, q.query, q.params.Encode(), err)
		}
	}
	tot.qps = append(tot.qps, float64(len(ok))/wall)
	tot.p50 = append(tot.p50, median(ok))
	tot.p99 = append(tot.p99, quantile(ok, 0.99))
}

// add accumulates one round's corpus counters.
func (t *serveTotals) add(before, after corpus.Stats, shed uint64) {
	t.rounds++
	t.delta.Hits += after.Hits - before.Hits
	t.delta.Misses += after.Misses - before.Misses
	t.delta.Evictions += after.Evictions - before.Evictions
	t.delta.Seeks += after.Seeks - before.Seeks
	t.delta.Restores += after.Restores - before.Restores
	t.delta.Steps += after.Steps - before.Steps
	t.residentBytes = after.ResidentBytes
	t.shed += shed
}

// check verifies one response body against the oracle.
func (sv *served) check(i int, body []byte) error {
	q := sv.reqs[i]
	o := sv.subs[q.sub].or
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	switch q.query {
	case "cfrange":
		var res struct {
			Count     uint64  `json:"count"`
			IDs       []int32 `json:"ids"`
			Truncated bool    `json:"truncated"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil {
			return err
		}
		want := o.cfRange(q.from, q.to)
		if res.Count != uint64(len(want)) || res.Truncated || !slices.Equal(res.IDs, want) {
			return fmt.Errorf("count %d (truncated %v), oracle %d, or ids differ", res.Count, res.Truncated, len(want))
		}
	case "valuetrace", "addrtrace":
		var res struct {
			Count   uint64       `json:"count"`
			Samples []wet.Sample `json:"samples"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil {
			return err
		}
		want := o.vals[q.stmt]
		if q.query == "addrtrace" {
			want = o.addrs[q.stmt]
		}
		if res.Count != uint64(len(want)) || len(res.Samples) != min(q.limit, len(want)) {
			return fmt.Errorf("count %d with %d samples, oracle %d", res.Count, len(res.Samples), len(want))
		}
		for k, x := range res.Samples {
			if x.TS != want[k].ts || x.Value != want[k].val {
				return fmt.Errorf("sample %d is (%d,%d), oracle (%d,%d)", k, x.TS, x.Value, want[k].ts, want[k].val)
			}
		}
	case "backward":
		var res struct {
			Count     int            `json:"count"`
			Instances []wet.Instance `json:"instances"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil {
			return err
		}
		got := sliceSet(res.Instances, sv.nodes[q.sub], o)
		if len(got) != res.Count {
			return fmt.Errorf("%d instances listed, count %d", len(got), res.Count)
		}
		return o.checkSlice(got, q.crit.ts, q.crit.pos, q.limit)
	}
	return nil
}

// queryRound times the in-process Server.Query on every request, one at a
// time: admission plus query, without HTTP.
func (r *run) queryRound(sv *served, tot *serveTotals) {
	runtime.GC()
	lat := make([]float64, 0, len(sv.reqs))
	for _, q := range sv.reqs {
		sp := r.tr.op("serve.query")
		t := time.Now()
		_, err := sv.srv.Query(context.Background(), sv.keys[q.sub], q.query, q.params)
		d := time.Since(t).Seconds()
		sp.end()
		r.attempted++
		if err != nil {
			r.fail("query %s %s: %v", sv.subs[q.sub].name, q.query, err)
			continue
		}
		lat = append(lat, d)
	}
	tot.queryMed = append(tot.queryMed, median(lat))
}

func (t *serveTotals) metrics(m map[string]float64) {
	m["serve_qps"] = median(t.qps)
	m["serve_p50_ms"] = median(t.p50) * 1e3
	m["serve_p99_ms"] = median(t.p99) * 1e3
}

// layerMetrics reports the corpus and cursor counters per round.
func (t *serveTotals) layerMetrics(m map[string]float64) {
	d, p := t.delta, float64(max(t.rounds, 1))
	hits, misses := float64(d.Hits), float64(d.Misses)
	m["corpus.hits"] = hits / p
	m["corpus.misses"] = misses / p
	m["corpus.evictions"] = float64(d.Evictions) / p
	m["corpus.hit_rate"] = ratio(hits, hits+misses)
	m["corpus.resident_mb"] = float64(t.residentBytes) / (1 << 20)
	m["serve.query_ms"] = median(t.queryMed) * 1e3
	m["serve.http_ms"] = (median(t.p50) - median(t.queryMed)) * 1e3
	m["serve.shed"] = float64(t.shed)
	seekMetrics(m, "cursor.serve_", wet.SeekStats{Seeks: d.Seeks, Restores: d.Restores, Steps: d.Steps}, p)
}
