package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/modin"
)

const mb = 1 << 20

// setupRounds is how many times each run sets its workload up; setup_s is
// the median, so one slow start does not move the metric.
const setupRounds = 5

// batchMinQueries is the fewest timed queries a batch run makes, however
// short its --seconds.
const batchMinQueries = 3

// heapSampler records the live-heap size every 10 ms while armed, reading
// runtime/metrics, which does not stop the world; a coarser tick would miss
// peaks, a finer one preempts the measured goroutines on a 2-core host. The
// sampled span is cut into windows: one per batch query (arm, then cut), or
// fixed slices of a served run (window > 0); peak_heap_mb is the median
// window peak, so one transient spike or one late GC does not decide it.
type heapSampler struct {
	mu      sync.Mutex
	armed   bool
	peak    uint64
	opened  time.Time
	windows []float64
	stop    chan struct{}
	done    chan struct{}
}

func newHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case now := <-tick.C:
				metrics.Read(sample)
				v := sample[0].Value.Uint64()
				h.mu.Lock()
				if h.armed && v > h.peak {
					h.peak = v
				}
				if h.armed && window > 0 && now.Sub(h.opened) >= window {
					h.closeLocked()
					h.armed, h.opened = true, now
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// arm opens a window.
func (h *heapSampler) arm() {
	h.mu.Lock()
	h.armed, h.peak, h.opened = true, 0, time.Now()
	h.mu.Unlock()
}

// cut closes the current window, recording its peak.
func (h *heapSampler) cut() {
	h.mu.Lock()
	h.closeLocked()
	h.mu.Unlock()
}

func (h *heapSampler) closeLocked() {
	if h.armed && h.peak > 0 {
		h.windows = append(h.windows, float64(h.peak)/mb)
	}
	h.armed, h.peak = false, 0
}

// close stops the sampler goroutine and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// peakMB is the median window peak.
func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.windows)
}

// memDelta is the allocation and GC activity between two snapshots.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// checkIf runs the result check only for a query that did not error.
func checkIf(err error, check func() error) error {
	if err != nil {
		return nil
	}
	return check()
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(before, after runtime.MemStats) memDelta {
	return memDelta{allocBytes: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}
}

// percentile is the nearest-rank percentile of xs (p in [0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	ld := len(s)
	if ld == 0 {
		return out
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spans holds the traced run's spans in memory: every timed layer call adds
// its duration to the current query's total for that layer, and the
// per-query totals are written out as medians when the run ends. Counters
// ride along under the same names.
type spans struct {
	mu       sync.Mutex
	cur      map[string]float64 // this query's totals
	perQuery map[string][]float64
	queries  int
}

func newSpans() *spans {
	return &spans{cur: map[string]float64{}, perQuery: map[string][]float64{}}
}

// time runs fn inside a span named layer, adding its duration in the
// unit the name ends with (_us or _ms).
func (s *spans) time(layer string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if strings.HasSuffix(layer, "_us") {
		s.add(layer, us(d))
	} else {
		s.add(layer, ms(d))
	}
	return err
}

// add accumulates v into the current query's total for name.
func (s *spans) add(name string, v float64) {
	s.mu.Lock()
	s.cur[name] += v
	s.mu.Unlock()
}

// endQuery closes the current query's totals.
func (s *spans) endQuery() {
	s.mu.Lock()
	for k, v := range s.cur {
		s.perQuery[k] = append(s.perQuery[k], v)
	}
	s.cur = map[string]float64{}
	s.queries++
	s.mu.Unlock()
}

// perQueryMedian is the median over traced queries of name's per-query
// total; queries that never touched name count as zero.
func (s *spans) perQueryMedian(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := append([]float64(nil), s.perQuery[name]...)
	for len(xs) < s.queries {
		xs = append(xs, 0)
	}
	return median(xs)
}

// layerMetrics lists every per-layer metric with its unit; each traced run
// reports all of them, zero where the workload does not load the layer.
var layerMetrics = []struct{ name, unit string }{
	{"core.parse_ms", "ms"},
	{"core.bands", "count"},
	{"schema.induce_ms", "ms"},
	{"algebra.filter_ms", "ms"},
	{"algebra.summarize_ms", "ms"},
	{"partition.split_ms", "ms"},
	{"partition.routed_rows", "count"},
	{"partition.routed_mb", "MB"},
	{"modin.route_plan_ms", "ms"},
	{"modin.merge_ms", "ms"},
	{"modin.restore_ms", "ms"},
	{"algebra.join_build_ms", "ms"},
	{"algebra.join_probe_ms", "ms"},
	{"modin.sort_partition_ms", "ms"},
	{"modin.sort_merge_ms", "ms"},
	{"storage.write_ms", "ms"},
	{"storage.read_ms", "ms"},
	{"storage.spilled_mb", "MB"},
	{"modin.spilled_pieces", "count"},
	{"cluster.encode_ms", "ms"},
	{"cluster.decode_ms", "ms"},
	{"cluster.wire_mb", "MB"},
	{"cluster.bands_ms", "ms"},
	{"cluster.partition_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.gather_ms", "ms"},
	{"cluster.fallbacks", "count"},
	{"cluster.local_reruns", "count"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.fingerprint_us", "us"},
	{"modin.compile_ms", "ms"},
	{"exec.tasks", "count"},
	{"modin.merge_tasks", "count"},
	{"modin.shuffle_fallbacks", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.lookups", "count"},
	{"server.hit_p50_us", "us"},
	{"server.miss_p50_ms", "ms"},
	{"server.build_query_us", "us"},
	{"server.http_overhead_us", "us"},
	{"server.queued", "count"},
	{"server.rejected", "count"},
	{"eager.query_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"check.failed_ratio", "ratio"},
	{"trace.query_ms", "ms"},
	{"trace.untraced_query_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// emitLayers writes every per-layer metric: span and counter medians from
// sp, overridden by the explicit values in extra.
func emitLayers(rep *report, sp *spans, extra map[string]float64) {
	for _, m := range layerMetrics {
		v, ok := extra[m.name]
		if !ok {
			v = sp.perQueryMedian(m.name)
		}
		rep.set(m.name, m.unit, v)
	}
	if rep.Attempted > 0 {
		rep.set("check.failed_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	}
}

// traceOverhead reports the traced sequence's per-query time against the
// same process's untraced engine query.
func traceOverhead(extra map[string]float64, tracedMs, untracedMs []float64) {
	t, u := median(tracedMs), median(untracedMs)
	extra["trace.query_ms"] = t
	extra["trace.untraced_query_ms"] = u
	if u > 0 {
		extra["trace.overhead_pct"] = 100 * (t - u) / u
	}
}

// e2e is what the end-to-end runs collect.
type e2e struct {
	setup     []float64 // seconds per setup round
	latencies []float64 // ms per query
	// busy is the seconds the rates divide by: summed query time for batch
	// workloads (the off-clock check and GC between queries are not the
	// system's time), the timed phase's wall clock when clients overlap.
	busy       float64
	rowsPerQ   float64 // input rows each query scans
	correct    int
	alloc      uint64
	peakHeapMB float64
}

// emitE2E writes every end-to-end metric.
func emitE2E(rep *report, m e2e) {
	n := float64(len(m.latencies))
	rep.set("setup_s", "s", median(m.setup))
	rep.set("query_p50_ms", "ms", percentile(m.latencies, 0.50))
	rep.set("query_p99_ms", "ms", percentile(m.latencies, 0.99))
	rep.set("rows_per_s", "1/s", m.rowsPerQ*n/m.busy)
	rep.set("queries_per_s", "1/s", float64(m.correct)/m.busy)
	rep.set("peak_heap_mb", "MB", m.peakHeapMB)
	rep.set("alloc_mb_per_query", "MB", float64(m.alloc)/mb/n)
}

// batchCase is a batch workload: setup builds the system under test and
// returns a query runner, whose result check runs off the clock, and a
// teardown.
type batchCase struct {
	rowsPerQuery int
	setup        func() (query func() (check func() error, err error), teardown func(), err error)
}

// runBatch sets the case up setupRounds times (each with one checked
// warm-up query, timed as part of set-up), then runs checked queries back
// to back until the deadline, at least batchMinQueries of them. A GC runs
// before each query, off the clock, so every query starts from the same
// heap and peak_heap_mb measures the query rather than leftover garbage.
func runBatch(cfg config, rep *report, bc batchCase) error {
	var m e2e
	var query func() (func() error, error)
	var teardown func()
	for r := 0; r < setupRounds; r++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		q, td, err := bc.setup()
		if err != nil {
			return err
		}
		check, qerr := q()
		m.setup = append(m.setup, time.Since(t0).Seconds())
		query, teardown = q, td
		rep.outcome(qerr, checkIf(qerr, check))
	}
	defer teardown()

	hs := newHeapSampler(0)
	defer hs.close()
	deadline := cfg.deadline()
	for time.Now().Before(deadline) || len(m.latencies) < batchMinQueries {
		runtime.GC()
		before := memSnapshot()
		hs.arm()
		t0 := time.Now()
		check, err := query()
		d := time.Since(t0)
		hs.cut()
		after := memSnapshot()
		m.alloc += diffMem(before, after).allocBytes
		m.latencies = append(m.latencies, ms(d))
		m.busy += d.Seconds()
		if rep.outcome(err, checkIf(err, check)) {
			m.correct++
		}
	}
	m.rowsPerQ = float64(bc.rowsPerQuery)
	m.peakHeapMB = hs.peakMB()
	emitE2E(rep, m)
	return nil
}

// steadiness re-runs this binary n times with consecutive seeds and prints
// each metric's median and interquartile spread (IQR over median), the
// figure the benchmark's bounds are judged against.
func steadiness(name string, seed int64, seconds float64, trace, n int, workdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(workdir, "steady")
		if err != nil {
			return err
		}
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--workdir", dir)
		cmd.Stderr = nil
		out, err := cmd.Output()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("run %d: %v", i, err)
		}
		var rep report
		if err := json.Unmarshal(lastLine(out), &rep); err != nil {
			return fmt.Errorf("run %d: %v", i, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			return fmt.Errorf("run %d: incorrect (%d of %d failed)", i, rep.Failed, rep.Attempted)
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "run %d/%d done\n", i+1, n)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	for _, k := range names {
		q := quartiles(values[k])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / math.Abs(q[1])
		}
		fmt.Printf("%-28s median %14.4f %-6s spread %6.2f%%  %s\n", k, q[1], units[k], 100*spread, strings.Trim(fmt.Sprint(values[k]), "[]"))
		summary[k] = map[string]float64{"median": q[1], "spread": spread}
	}
	out, _ := json.Marshal(map[string]any{"workload": name, "runs": n, "metrics": summary})
	fmt.Println(string(out))
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// engineStats is a snapshot of the modin engine's cumulative counters.
type engineStats struct{ tasks, merges, fallbacks, spilled int64 }

func engineCounters(e *modin.Engine) engineStats {
	s := e.Stats()
	return engineStats{
		tasks:     s.FusedTasks.Load() + s.ExchangeTasks.Load() + s.ShufflePartitionTasks.Load() + s.ShuffleMergeTasks.Load(),
		merges:    s.ShuffleMergeTasks.Load(),
		fallbacks: s.ShuffleFallbacks.Load(),
		spilled:   s.SpilledPieces.Load(),
	}
}

// addDelta adds the counters accrued since before to the current query.
func (now engineStats) addDelta(sp *spans, before engineStats) {
	sp.add("exec.tasks", float64(now.tasks-before.tasks))
	sp.add("modin.merge_tasks", float64(now.merges-before.merges))
	sp.add("modin.shuffle_fallbacks", float64(now.fallbacks-before.fallbacks))
	sp.add("modin.spilled_pieces", float64(now.spilled-before.spilled))
}
