package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// The scanned dataset: scanRows CSV rows of (key, qty, val, tag). Keys are
// Zipf(1.2) over scanKeys strings, qty is uniform on [0, 100) so the filter
// qty < 50 keeps about half the rows, val is a two-decimal float that is
// null one time in twenty, and tag is an unread payload column. Every
// nullKeyEvery-th row carries the key "knull" with a null val and a
// passing qty, so the all-null group convention is always exercised.
const (
	scanRows     = 400_000
	scanKeys     = 5_000
	scanZipfS    = 1.2
	scanBandRows = 8_192
	scanCut      = 50
	scanSpill    = 20_000 // shuffle spill budget, cells
	nullKeyEvery = 997
)

// Load is sized for a 2-core host: one process, a task pool of 2 workers
// (so 2 shuffle buckets), and 2 in-process cluster workers.
const (
	poolWorkers    = 2
	shuffleBuckets = poolWorkers
	clusterWorkers = 2
)

var scanAggs = []df.AggSpec{
	{Col: "val", Agg: "sum", As: "val_sum"},
	{Col: "val", Agg: "count", As: "val_count"},
	{Col: "val", Agg: "mean", As: "val_mean"},
	{Col: "val", Agg: "min", As: "val_min"},
	{Col: "val", Agg: "max", As: "val_max"},
	{Col: "", Agg: "size", As: "rows"},
}

// scanSpec is scanAggs in the algebra's form, for the traced layer calls.
var scanSpec = expr.GroupBySpec{
	Keys: []string{"key"},
	Aggs: []expr.AggSpec{
		{Col: "val", Agg: expr.AggSum, As: "val_sum"},
		{Col: "val", Agg: expr.AggCount, As: "val_count"},
		{Col: "val", Agg: expr.AggMean, As: "val_mean"},
		{Col: "val", Agg: expr.AggMin, As: "val_min"},
		{Col: "val", Agg: expr.AggMax, As: "val_max"},
		{Col: "", Agg: expr.AggSize, As: "rows"},
	},
}

// groupAcc is the reference accumulator of one group.
type groupAcc struct {
	sum      float64
	count    int64
	min, max float64
	size     int64
}

// genScan writes the dataset to path and returns the reference result of
// the filter→groupby query, accumulated in plain Go maps as rows are drawn.
func genScan(path string, seed int64) (*table, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, scanZipfS, 1, scanKeys-1)
	tags := []string{"red", "green", "blue"}

	var order []string
	groups := map[string]*groupAcc{}
	w.WriteString("key,qty,val,tag\n")
	var line []byte
	for i := 0; i < scanRows; i++ {
		key := fmt.Sprintf("k%04d", zipf.Uint64())
		qty := int64(rng.Intn(100))
		null := rng.Intn(20) == 0
		val := float64(rng.Intn(100_000)) / 100
		if i%nullKeyEvery == nullKeyEvery-1 {
			key, qty, null = "knull", 7, true
		}
		line = append(line[:0], key...)
		line = append(line, ',')
		line = strconv.AppendInt(line, qty, 10)
		line = append(line, ',')
		if !null {
			line = strconv.AppendFloat(line, val, 'f', -1, 64)
		}
		line = append(line, ',')
		line = append(line, tags[rng.Intn(len(tags))]...)
		line = append(line, '\n')
		w.Write(line)

		if qty >= scanCut {
			continue
		}
		g := groups[key]
		if g == nil {
			g = &groupAcc{}
			groups[key] = g
			order = append(order, key)
		}
		g.size++
		if null {
			continue
		}
		if g.count == 0 || val < g.min {
			g.min = val
		}
		if g.count == 0 || val > g.max {
			g.max = val
		}
		g.sum += val
		g.count++
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return groupTable(order, groups), nil
}

// groupTable renders reference groups in first-appearance order, under the
// all-null convention: sum 0, count 0, null mean/min/max.
func groupTable(order []string, groups map[string]*groupAcc) *table {
	n := len(order)
	t := &table{labels: make([]int64, n)}
	sum, mean, mn, mx := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	cnt, size := make([]int64, n), make([]int64, n)
	null := make([]bool, n)
	for i, k := range order {
		g := groups[k]
		t.labels[i] = int64(i)
		sum[i], cnt[i], size[i] = g.sum, g.count, g.size
		if g.count == 0 {
			null[i] = true
			continue
		}
		mean[i], mn[i], mx[i] = g.sum/float64(g.count), g.min, g.max
	}
	t.cols = []column{
		strCol("key", order),
		fltCol("val_sum", sum, nil, true),
		intCol("val_count", cnt),
		fltCol("val_mean", mean, null, true),
		fltCol("val_min", mn, null, false),
		fltCol("val_max", mx, null, false),
		intCol("rows", size),
	}
	return t
}

func scanQuery(path string, eng df.Engine) *df.Query {
	return df.ScanCSVFile(path).
		WithScanBandRows(scanBandRows).
		WithEngine(eng).
		Where(df.Lt("qty", df.Int(scanCut))).
		GroupBy("key").
		Agg(scanAggs...)
}

// checkGroups compares a grouped result with the reference.
func checkGroups(out *df.DataFrame, want *table) error {
	got, err := tableOf(out.Frame(), "val_sum", "val_mean")
	if err != nil {
		return err
	}
	return compareTables(got, want)
}

// scanInput generates the dataset off the clock.
func scanInput(cfg config) (path string, want *table, err error) {
	path = filepath.Join(cfg.workdir, fmt.Sprintf("scan-%d.csv", cfg.seed))
	want, err = genScan(path, cfg.seed)
	return path, want, err
}

func newModin(pool *exec.Pool, spill int) *modin.Engine {
	opts := []modin.Option{modin.WithPool(pool), modin.WithBands(poolWorkers)}
	if spill > 0 {
		opts = append(opts, modin.WithShuffleSpillBudget(spill))
	}
	return modin.New(opts...)
}

func runScanGroupBy(cfg config, rep *report) error {
	path, want, err := scanInput(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceScan(cfg, rep, path, want, false)
	}
	return runBatch(cfg, rep, batchCase{
		rowsPerQuery: scanRows,
		setup: func() (func() (func() error, error), func(), error) {
			pool := exec.NewPool(poolWorkers)
			eng := newModin(pool, scanSpill)
			query := func() (func() error, error) {
				out, err := scanQuery(path, eng).Collect()
				return func() error { return checkGroups(out, want) }, err
			}
			return query, func() { eng.ReleaseSpill(); pool.Close() }, nil
		},
	})
}

// clusterRun is one in-process cluster deployment plus the phase clock the
// scheduler's OnPhase hook feeds.
type clusterRun struct {
	pool    *exec.Pool
	sched   *cluster.Scheduler
	workers []*cluster.Worker

	mu     sync.Mutex
	start  time.Time
	phases map[string]time.Duration
}

func startCluster() (*clusterRun, error) {
	pool := exec.NewPool(poolWorkers)
	// No heartbeat: in-process workers cannot die, and a probe starved of
	// CPU on a loaded 2-core host must not turn into a spurious re-run.
	sched, workers, err := cluster.StartInProcess(clusterWorkers,
		cluster.WithLocalEngine(newModin(pool, 0)), cluster.WithHeartbeat(0))
	if err != nil {
		pool.Close()
		return nil, err
	}
	c := &clusterRun{pool: pool, sched: sched, workers: workers, phases: map[string]time.Duration{}}
	sched.OnPhase = func(phase string) {
		c.mu.Lock()
		c.phases[phase] = time.Since(c.start)
		c.mu.Unlock()
	}
	return c, nil
}

func (c *clusterRun) close() {
	c.sched.Close()
	for _, w := range c.workers {
		w.Close()
	}
	c.pool.Close()
}

// query runs the scan query on the cluster. It fails unless the scheduler
// counted it distributed, with no fallback and no local re-run: otherwise
// the run would silently measure the local engine.
func (c *clusterRun) query(path string) (*df.DataFrame, time.Duration, error) {
	before := c.sched.ClusterStats()
	c.mu.Lock()
	c.start = time.Now()
	c.phases = map[string]time.Duration{}
	c.mu.Unlock()
	out, err := scanQuery(path, c.sched).Collect()
	total := time.Since(c.start)
	if err != nil {
		return nil, total, err
	}
	after := c.sched.ClusterStats()
	if after.Distributed != before.Distributed+1 || after.Fallback != before.Fallback || after.LocalReruns != before.LocalReruns {
		return nil, total, fmt.Errorf("query did not run distributed (distributed +%d, fallback +%d, local re-runs +%d)",
			after.Distributed-before.Distributed, after.Fallback-before.Fallback, after.LocalReruns-before.LocalReruns)
	}
	return out, total, nil
}

func runClusterGroupBy(cfg config, rep *report) error {
	path, want, err := scanInput(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceScan(cfg, rep, path, want, true)
	}
	return runBatch(cfg, rep, batchCase{
		rowsPerQuery: scanRows,
		setup: func() (func() (func() error, error), func(), error) {
			c, err := startCluster()
			if err != nil {
				return nil, nil, err
			}
			query := func() (func() error, error) {
				out, _, err := c.query(path)
				return func() error { return checkGroups(out, want) }, err
			}
			return query, c.close, nil
		},
	})
}

// ---- traced run -----------------------------------------------------------

// pieceSpill mirrors the engine's spill admission for the traced sequence:
// routed pieces are held against the cell budget and written through the
// storage layer past it.
type pieceSpill struct {
	sp       *spans
	store    *storage.Store
	budget   int
	resident int
	seq      int
}

// admit returns a handle resolving to the piece: resident, or spilled.
func (s *pieceSpill) admit(piece *core.DataFrame) (func() (*core.DataFrame, error), error) {
	cells := piece.NRows()*piece.NCols() + 1
	if s.store == nil || s.resident+cells <= s.budget {
		s.resident += cells
		own := piece.Detach()
		return func() (*core.DataFrame, error) { return own, nil }, nil
	}
	s.seq++
	key := strconv.Itoa(s.seq)
	err := s.sp.time("storage.write_ms", func() error {
		if err := s.store.Put(key, piece); err != nil {
			return err
		}
		return s.store.Release(key)
	})
	if err != nil {
		return nil, err
	}
	s.sp.add("storage.spilled_mb", float64(wireBytes(piece))/mb)
	return func() (*core.DataFrame, error) {
		var df *core.DataFrame
		err := s.sp.time("storage.read_ms", func() error {
			var err error
			df, err = s.store.Get(key)
			s.store.Delete(key)
			return err
		})
		return df, err
	}, nil
}

// wireBytes is df's size in the cluster wire format.
func wireBytes(df *core.DataFrame) int {
	buf, err := cluster.EncodeFrame(nil, df)
	if err != nil {
		return 0
	}
	return len(buf)
}

// groupShuffle is the traced form of a band-routed groupby shuffle: each
// band is summarized and split by key hash as it arrives, then the routing
// plan is folded, buckets merged, and the global group order restored.
type groupShuffle struct {
	sp     *spans
	pool   *exec.Pool
	spec   expr.GroupBySpec
	spill  *pieceSpill
	wire   bool // pieces cross the cluster wire format
	stats  []*modin.GroupBandStat
	pieces [][]func() (*core.DataFrame, error) // [bucket][band]
}

func newGroupShuffle(sp *spans, pool *exec.Pool, spec expr.GroupBySpec, spill *pieceSpill, wire bool) *groupShuffle {
	return &groupShuffle{sp: sp, pool: pool, spec: spec, spill: spill, wire: wire,
		pieces: make([][]func() (*core.DataFrame, error), shuffleBuckets)}
}

// route summarizes and splits one band.
func (g *groupShuffle) route(band *core.DataFrame) error {
	var sum *algebra.GroupKeySummary
	err := g.sp.time("algebra.summarize_ms", func() error {
		var err error
		sum, err = algebra.SummarizeGroupKeys(band, g.spec.Keys)
		if err == nil {
			g.stats = append(g.stats, modin.GroupStatOf(sum))
		}
		return err
	})
	if err != nil {
		return err
	}
	var views []*core.DataFrame
	err = g.sp.time("partition.split_ms", func() error {
		assign := make([]int, len(sum.Ordinals))
		for r, d := range sum.Ordinals {
			assign[r] = int(sum.Hashes[d] % uint64(shuffleBuckets))
		}
		var err error
		views, err = partition.SplitRows(band, assign, shuffleBuckets)
		return err
	})
	if err != nil {
		return err
	}
	g.sp.add("partition.routed_rows", float64(band.NRows()))
	for b, v := range views {
		if g.wire {
			v, err = wireTrip(g.sp, v)
		} else {
			g.sp.add("partition.routed_mb", float64(wireBytes(v))/mb)
		}
		if err != nil {
			return err
		}
		h, err := g.spill.admit(v)
		if err != nil {
			return err
		}
		g.pieces[b] = append(g.pieces[b], h)
	}
	return nil
}

// wireTrip sends a frame through the cluster wire format and back.
func wireTrip(sp *spans, df *core.DataFrame) (*core.DataFrame, error) {
	var buf []byte
	err := sp.time("cluster.encode_ms", func() error {
		var err error
		buf, err = cluster.EncodeFrame(nil, df)
		return err
	})
	if err != nil {
		return nil, err
	}
	sp.add("cluster.wire_mb", float64(len(buf))/mb)
	sp.add("partition.routed_mb", float64(len(buf))/mb)
	var out *core.DataFrame
	err = sp.time("cluster.decode_ms", func() error {
		var err error
		out, _, err = cluster.DecodeFrame(buf)
		return err
	})
	return out, err
}

// finish folds the routing plan, merges every bucket and restores order.
func (g *groupShuffle) finish() (*core.DataFrame, error) {
	var routing *modin.GroupRouting
	g.sp.time("modin.route_plan_ms", func() error {
		routing = modin.PlanGroupRouting(g.stats, shuffleBuckets, true)
		return nil
	})
	merged := make([]*core.DataFrame, shuffleBuckets)
	for b := range merged {
		frames := make([]*core.DataFrame, len(g.pieces[b]))
		for i, h := range g.pieces[b] {
			var err error
			if frames[i], err = h(); err != nil {
				return nil, err
			}
		}
		err := g.sp.time("modin.merge_ms", func() error {
			var err error
			merged[b], err = modin.MergeGroupBucket(g.pool, frames, g.spec, routing, b)
			return err
		})
		if err != nil {
			return nil, err
		}
		if g.wire {
			if merged[b], err = wireTrip(g.sp, merged[b]); err != nil {
				return nil, err
			}
		}
	}
	var out *core.DataFrame
	err := g.sp.time("modin.restore_ms", func() error {
		// Multi-bucket merges tag each group with its global rank in a
		// trailing column; the restore orders by the ranks the plan holds,
		// so the tag is dropped first, as the engine's restore does.
		for b, m := range merged {
			if j := m.NCols() - 1; m.ColName(j) == modin.GroupRankCol {
				merged[b] = m.DropColumn(j)
			}
		}
		var err error
		out, err = modin.RestoreGroupOrder(merged, routing.Ranks, g.spec.AsLabels)
		return err
	})
	return out, err
}

// tracedScan runs the scan query as a sequence of layer calls: parse a
// band, induce the touched columns' types, filter, then route the band
// through the groupby shuffle (spilling past the budget, or across the
// wire format when wire is set).
func tracedScan(sp *spans, pool *exec.Pool, path string, wire bool) (*core.DataFrame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cur *core.CSVCursor
	err = sp.time("core.parse_ms", func() error {
		var err error
		cur, err = core.NewCSVCursor(bufio.NewReaderSize(f, 1<<16), core.DefaultCSVOptions())
		return err
	})
	if err != nil {
		return nil, err
	}
	spill := &pieceSpill{sp: sp, budget: scanSpill}
	if !wire {
		if spill.store, err = storage.New(0); err != nil {
			return nil, err
		}
		defer spill.store.Close()
	}
	gs := newGroupShuffle(sp, pool, scanSpec, spill, wire)
	where := expr.WhereCompare("qty", vector.CmpLt, types.IntValue(scanCut))
	used := []string{"key", "qty", "val"}
	for {
		var band *core.DataFrame
		err := sp.time("core.parse_ms", func() error {
			var err error
			band, err = cur.NextBand(scanBandRows)
			if err == nil {
				band = band.WithCache(schema.NewCache())
			}
			return err
		})
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		sp.add("core.bands", 1)
		sp.time("schema.induce_ms", func() error {
			for _, c := range used {
				band.TypedCol(band.ColIndex(c))
			}
			return nil
		})
		var kept *core.DataFrame
		err = sp.time("algebra.filter_ms", func() error {
			var err error
			kept, err = algebra.SelectWhereView(band, where)
			if err == nil {
				kept = kept.Compact()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := gs.route(kept); err != nil {
			return nil, err
		}
	}
	return gs.finish()
}

// traceScan is the traced run of scan-groupby (wire=false) and
// cluster-groupby (wire=true). Each iteration runs the traced layer
// sequence, the untraced engine query (for engine counters, cluster phase
// times and the tracing overhead) and the eager baseline, checking all
// three results.
func traceScan(cfg config, rep *report, path string, want *table, wire bool) error {
	sp := newSpans()
	pool := exec.NewPool(poolWorkers)
	defer pool.Close()
	eng := newModin(pool, scanSpill)
	defer eng.ReleaseSpill()
	var c *clusterRun
	if wire {
		var err error
		if c, err = startCluster(); err != nil {
			return err
		}
		defer c.close()
	}
	extra := map[string]float64{}
	var traced, untraced []float64
	deadline := cfg.deadline()
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		runtime.GC()
		t0 := time.Now()
		out, err := tracedScan(sp, pool, path, wire)
		traced = append(traced, msSince(t0))
		rep.outcome(err, checkIf(err, func() error { return compareResult(out, want) }))

		q := scanQuery(path, eng)
		if wire {
			q = scanQuery(path, c.sched)
		}
		planLayers(sp, q, eng)

		runtime.GC()
		before, st := memSnapshot(), engineCounters(eng)
		t0 = time.Now()
		var res *df.DataFrame
		if wire {
			var total time.Duration
			res, total, err = c.query(path)
			c.mu.Lock()
			ph := c.phases
			c.mu.Unlock()
			sp.add("cluster.bands_ms", ms(ph["bands"]))
			sp.add("cluster.partition_ms", ms(ph["partitioned"]-ph["bands"]))
			sp.add("cluster.merge_ms", ms(ph["merged"]-ph["partitioned"]))
			sp.add("cluster.gather_ms", ms(total-ph["merged"]))
			cs := c.sched.ClusterStats()
			extra["cluster.fallbacks"] = float64(cs.Fallback)
			extra["cluster.local_reruns"] = float64(cs.LocalReruns)
		} else {
			res, err = q.Collect()
		}
		untraced = append(untraced, msSince(t0))
		sp.add("go.gc_cycles", float64(diffMem(before, memSnapshot()).gcCycles))
		engineCounters(eng).addDelta(sp, st)
		rep.outcome(err, checkIf(err, func() error { return checkGroups(res, want) }))

		t0 = time.Now()
		base, err := scanQuery(path, df.NewBaselineEngine()).Collect()
		sp.add("eager.query_ms", msSince(t0))
		rep.outcome(err, checkIf(err, func() error { return checkGroups(base, want) }))
		sp.endQuery()
	}
	traceOverhead(extra, traced, untraced)
	emitLayers(rep, sp, extra)
	return nil
}

// compareResult checks a traced (core) grouped result.
func compareResult(out *core.DataFrame, want *table) error {
	got, err := tableOf(out, "val_sum", "val_mean")
	if err != nil {
		return err
	}
	return compareTables(got, want)
}

// planLayers times the optimizer and the engine's compiler on the query's
// logical plan.
func planLayers(sp *spans, q *df.Query, eng *modin.Engine) {
	var plan algebra.Node
	sp.time("optimizer.optimize_us", func() error {
		plan, _ = optimizer.Optimize(q.Plan(), optimizer.Default())
		return nil
	})
	sp.time("optimizer.fingerprint_us", func() error {
		optimizer.Fingerprint(plan)
		return nil
	})
	sp.time("modin.compile_ms", func() error {
		_, err := eng.Compile(plan)
		return err
	})
}
