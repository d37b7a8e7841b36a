package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/df"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/server"
	"repro/internal/workload"
)

// The serve-mix workload: a server.Server on loopback HTTP serving a
// serveRows-row taxi dataset to serveClients closed-loop clients, each a
// notebook user waiting for every reply. They replay the dfreplay call mix
// with serveLiterals distinct filter literals.
const (
	serveRows       = 100_000
	serveClients    = 2
	serveLiterals   = 10
	serveMinQueries = 1_000 // so ten or more samples lie beyond p99
	serveTraceLen   = 100_000
)

// serveShapes mirrors cmd/dfreplay's notebook call mix (loc→where,
// head/tail→limit, aggregates→groupby, sort_values→sort, drop→drop), with
// the filter literal drawn from serveLiterals cutoffs.
var serveShapes = []struct {
	name   string
	weight int
	make   func(r *rand.Rand) []server.OpSpec
}{
	{"filter-head", 92, func(r *rand.Rand) []server.OpSpec {
		return []server.OpSpec{whereTotal(r), {Op: "head", N: 5 + r.Intn(3)*5}}
	}},
	{"filter", 70, func(r *rand.Rand) []server.OpSpec { return []server.OpSpec{whereTotal(r)} }},
	{"mean", 58, func(r *rand.Rand) []server.OpSpec {
		return []server.OpSpec{{Op: "groupby", By: []string{"payment_type"},
			Aggs: []server.AggSpec{{Col: "total_amount", Agg: "mean", As: "avg_total"}}}}
	}},
	{"groupby-size", 52, func(r *rand.Rand) []server.OpSpec {
		return []server.OpSpec{{Op: "groupby", By: []string{"vendor_id"},
			Aggs: []server.AggSpec{{Col: "", Agg: "size", As: "trips"}}}}
	}},
	{"drop", 46, func(r *rand.Rand) []server.OpSpec {
		return []server.OpSpec{{Op: "drop", Cols: []string{"store_and_fwd_flag"}}, {Op: "head", N: 10}}
	}},
	{"agg-sort", 38, func(r *rand.Rand) []server.OpSpec {
		return []server.OpSpec{
			whereTotal(r),
			{Op: "groupby", By: []string{"vendor_id", "payment_type"},
				Aggs: []server.AggSpec{{Col: "tip_amount", Agg: "mean", As: "avg_tip"}}},
			{Op: "sort", Keys: []server.SortKeySpec{{Col: "avg_tip", Desc: true}}},
		}
	}},
	{"sort-head", 20, func(r *rand.Rand) []server.OpSpec {
		return []server.OpSpec{{Op: "sort", Keys: []server.SortKeySpec{{Col: "trip_distance", Desc: true}}}, {Op: "head", N: 10}}
	}},
	{"tail", 9, func(r *rand.Rand) []server.OpSpec { return []server.OpSpec{{Op: "tail", N: 5}} }},
}

// whereTotal filters on total_amount > cut, cut in [18, 18+serveLiterals).
// The filtered results then total about 1.35 times the plan cache's default
// cell cap, so they are evicted and re-run at a steady rate: about one
// query in five misses. With lower cuts the results crowd out most other
// entries and the median falls on the hit/miss boundary; with higher cuts
// every result fits and nothing is evicted.
func whereTotal(r *rand.Rand) server.OpSpec {
	cut := 18 + r.Intn(serveLiterals)
	return server.OpSpec{Op: "where", Col: "total_amount", Cmp: ">", Value: json.RawMessage(strconv.Itoa(cut))}
}

// serveQuery is one trace entry: its wire spec and the spec's canonical
// JSON, which keys the reference.
type serveQuery struct {
	spec server.QuerySpec
	body []byte
}

// buildServeTrace lays the trace out in blocks that each hold every shape
// exactly its weight many times, shuffled within the block by the seed:
// any long enough run of the trace has the corpus mix, whichever seed.
func buildServeTrace(seed int64) []serveQuery {
	r := rand.New(rand.NewSource(seed))
	var block []int
	for i, s := range serveShapes {
		for k := 0; k < s.weight; k++ {
			block = append(block, i)
		}
	}
	trace := make([]serveQuery, 0, serveTraceLen)
	for len(trace) < serveTraceLen {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, i := range block {
			s := serveShapes[i]
			spec := server.QuerySpec{Name: s.name, Dataset: "taxi", Ops: s.make(r)}
			body, _ := json.Marshal(spec)
			trace = append(trace, serveQuery{spec: spec, body: body})
		}
	}
	return trace[:serveTraceLen]
}

// previewOf renders a result the way the server's responses do: row count,
// column names, and the first previewRows rows of raw cells.
func previewOf(out *core.DataFrame, previewRows int) *preview {
	p := &preview{rows: out.NRows(), cols: out.ColNames()}
	n := min(previewRows, out.NRows())
	for i := 0; i < n; i++ {
		row := make([]string, out.NCols())
		for j := range row {
			row[j] = out.Col(j).Value(i).String()
		}
		p.cells = append(p.cells, row)
	}
	return p
}

// serveReference runs every distinct spec of the trace prefix on the eager
// baseline engine, off the clock, and returns each spec's expected preview
// keyed by its JSON, plus the eager time per spec in ms.
func serveReference(frame *core.DataFrame, trace []serveQuery) (map[string]*preview, []float64, error) {
	base := df.FromFrame(frame).WithEngine(df.NewBaselineEngine())
	ref := map[string]*preview{}
	var times []float64
	for _, q := range trace {
		key := string(q.body)
		if _, ok := ref[key]; ok {
			continue
		}
		t0 := time.Now()
		bq, err := server.BuildQuery(base, q.spec.Ops)
		if err != nil {
			return nil, nil, err
		}
		out, err := bq.Collect()
		if err != nil {
			return nil, nil, fmt.Errorf("eager reference for %s: %w", key, err)
		}
		times = append(times, msSince(t0))
		ref[key] = previewOf(out.Frame(), 5)
	}
	return ref, times, nil
}

// served is one running server plus its loopback HTTP front end and the
// clients' sessions.
type served struct {
	srv      *server.Server
	http     *http.Server
	client   *http.Client
	base     string
	sessions []string
	done     chan struct{}
}

func (s *served) post(path string, body []byte, out any) error {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	return json.Unmarshal(buf, out)
}

// startServer is the workload's set-up: register the dataset, start the
// server and its HTTP listener, and open one session per client.
func startServer(frame *core.DataFrame) (*served, error) {
	srv := server.New(server.Config{})
	srv.Start()
	srv.RegisterDataset("taxi", df.FromFrame(frame))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &served{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	for c := 0; c < serveClients; c++ {
		var sess struct {
			ID string `json:"id"`
		}
		body, _ := json.Marshal(map[string]string{"tenant": "user-" + strconv.Itoa(c), "mode": "eager"})
		if err := s.post("/sessions", body, &sess); err != nil {
			s.close()
			return nil, err
		}
		s.sessions = append(s.sessions, sess.ID)
	}
	return s, nil
}

// close stops the HTTP server (waiting for its serve loop) and the server.
func (s *served) close() {
	s.http.Shutdown(context.Background())
	<-s.done
	s.client.CloseIdleConnections()
	s.srv.Shutdown()
}

// reply is one served query as the client saw it.
type reply struct {
	rttMs     float64
	elapsedUs float64
	cache     string
	ok        bool
}

// ask sends one trace query on the client's session and checks the reply.
func (s *served) ask(client int, q serveQuery, ref map[string]*preview, rep *report) reply {
	var res server.QueryResult
	t0 := time.Now()
	err := s.post("/sessions/"+s.sessions[client]+"/query", q.body, &res)
	r := reply{rttMs: msSince(t0), elapsedUs: res.Elapsed, cache: res.Cache}
	var bad error
	if err == nil {
		want := ref[string(q.body)]
		if want == nil {
			bad = fmt.Errorf("no reference for %s", q.body)
		} else {
			bad = comparePreview(&preview{rows: res.Rows, cols: res.Cols, cells: res.Preview}, want)
			if bad != nil {
				bad = fmt.Errorf("%s: %w", q.body, bad)
			}
		}
	}
	r.ok = rep.outcome(err, bad)
	return r
}

// drive runs the closed loop: serveClients goroutines take trace entries
// in order, each waiting for its reply before sending the next, until the
// deadline has passed and at least serveMinQueries replies are in.
// perQuery, if set, runs before each query on the client's goroutine.
func (s *served) drive(trace []serveQuery, ref map[string]*preview, rep *report, deadline time.Time,
	perQuery func(q serveQuery)) []reply {
	var next atomic.Int64
	out := make([][]reply, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(trace) || (i >= serveMinQueries && !time.Now().Before(deadline)) {
					return
				}
				if perQuery != nil {
					perQuery(trace[i])
				}
				out[c] = append(out[c], s.ask(c, trace[i], ref, rep))
			}
		}(c)
	}
	wg.Wait()
	var all []reply
	for _, r := range out {
		all = append(all, r...)
	}
	return all
}

func serveInput(cfg config) (*core.DataFrame, []serveQuery, map[string]*preview, []float64, error) {
	opts := workload.DefaultTaxiOptions(serveRows)
	opts.Seed = cfg.seed
	frame := workload.Taxi(opts)
	trace := buildServeTrace(cfg.seed)
	ref, eager, err := serveReference(frame, trace)
	return frame, trace, ref, eager, err
}

func runServeMix(cfg config, rep *report) error {
	frame, trace, ref, eagerMs, err := serveInput(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceServe(cfg, rep, frame, trace, ref, eagerMs)
	}
	var m e2e
	var s *served
	for r := 0; r < setupRounds; r++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = startServer(frame); err != nil {
			return err
		}
		s.ask(0, trace[0], ref, rep)
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	defer s.close()

	hs := newHeapSampler(250 * time.Millisecond)
	defer hs.close()
	before := memSnapshot()
	hs.arm()
	start := time.Now()
	replies := s.drive(trace[1:], ref, rep, cfg.deadline(), nil)
	m.busy = time.Since(start).Seconds()
	hs.cut()
	m.alloc = diffMem(before, memSnapshot()).allocBytes
	for _, r := range replies {
		m.latencies = append(m.latencies, r.rttMs)
		if r.ok {
			m.correct++
		}
	}
	m.rowsPerQ = serveRows
	m.peakHeapMB = hs.peakMB()
	emitE2E(rep, m)
	return nil
}

// traceServe is the traced run of serve-mix. Before each served query the
// client's goroutine runs the server's layers on the same spec in
// sequence, each in a span: BuildQuery, Optimize, Fingerprint, the
// engine's Compile and ExecuteCompiled (with its task counters). The served
// replies split latency by cache outcome and give the HTTP overhead.
func traceServe(cfg config, rep *report, frame *core.DataFrame, trace []serveQuery, ref map[string]*preview, eagerMs []float64) error {
	s, err := startServer(frame)
	if err != nil {
		return err
	}
	defer s.close()
	pool := exec.NewPool(poolWorkers)
	defer pool.Close()
	eng := newModin(pool, 0)
	base := df.FromFrame(frame)
	sp := newSpans()
	var traced []float64
	var mu sync.Mutex
	perQuery := func(q serveQuery) {
		mu.Lock()
		defer mu.Unlock()
		defer sp.endQuery()
		t0 := time.Now()
		var bq *df.Query
		err := sp.time("server.build_query_us", func() error {
			var err error
			bq, err = server.BuildQuery(base, q.spec.Ops)
			return err
		})
		if err != nil {
			rep.outcome(err, nil)
			return
		}
		plan := bq.Plan()
		sp.time("optimizer.optimize_us", func() error {
			plan, _ = optimizer.Optimize(plan, optimizer.Default())
			return nil
		})
		sp.time("optimizer.fingerprint_us", func() error {
			optimizer.Fingerprint(plan)
			return nil
		})
		var compiled *physical.Node
		err = sp.time("modin.compile_ms", func() error {
			var err error
			compiled, err = eng.Compile(plan)
			return err
		})
		st := engineCounters(eng)
		var out *core.DataFrame
		if err == nil {
			out, err = eng.ExecuteCompiled(compiled)
		}
		engineCounters(eng).addDelta(sp, st)
		traced = append(traced, msSince(t0))
		rep.outcome(err, checkIf(err, func() error { return comparePreview(previewOf(out, 5), ref[string(q.body)]) }))
	}
	before := memSnapshot()
	replies := s.drive(trace, ref, rep, cfg.deadline(), perQuery)
	gcPerQuery := float64(diffMem(before, memSnapshot()).gcCycles) / float64(len(replies))

	var hit, miss, overhead []float64
	for _, r := range replies {
		overhead = append(overhead, r.rttMs*1000-r.elapsedUs)
		switch r.cache {
		case "hit":
			hit = append(hit, r.rttMs*1000)
		case "miss", "compiled":
			miss = append(miss, r.rttMs)
		}
	}
	st := s.srv.Stats()
	lookups := st.Cache.Hits + st.Cache.CompiledHits + st.Cache.Misses
	var queued, rejected int64
	for _, t := range st.Tenants {
		queued += t.Queued
		rejected += t.Rejected
	}
	extra := map[string]float64{
		"server.hit_ratio":        st.Cache.HitRate(),
		"server.lookups":          float64(lookups),
		"server.hit_p50_us":       median(hit),
		"server.miss_p50_ms":      median(miss),
		"server.http_overhead_us": median(overhead),
		"server.queued":           float64(queued),
		"server.rejected":         float64(rejected),
		"eager.query_ms":          median(eagerMs),
		"go.gc_cycles":            gcPerQuery,
	}
	// The traced sequence always executes, so it is set against the served
	// queries that executed too: cache misses, not hits.
	traceOverhead(extra, traced, miss)
	emitLayers(rep, sp, extra)
	return nil
}
