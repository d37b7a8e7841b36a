package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/partition"
	"repro/internal/types"
	"repro/internal/vector"
)

// The join-sort dataset: joinOrders orders over joinCustomers customers,
// both in memory and typed. The customer side is above the engine's
// 65,536-row broadcast limit, so the join shuffles by key.
const (
	joinOrders    = 300_000
	joinCustomers = 100_000
	joinTierCut   = 2 // keep orders of customers with tier >= joinTierCut
)

var joinRegions = []string{"north", "south", "east", "west", "central", "coast", "hills", "plains"}

// joinData is the generated input, as plain Go slices.
type joinData struct {
	orderID, orderCust, qty []int64
	amount                  []float64
	custID, tier            []int64
	region                  []string
}

// genJoin draws the orders and customers and returns the reference result
// of the join→filter→groupby→sort query, computed with plain Go maps and a
// stable sort: groups in first-appearance order of the joined rows (which
// follow order rows, each customer matching at most once), then ordered by
// descending qty with ties kept in first-appearance order.
func genJoin(seed int64) (*joinData, *table) {
	rng := rand.New(rand.NewSource(seed))
	d := &joinData{}
	perm := rng.Perm(joinCustomers)
	tierOf := make([]int64, joinCustomers)
	regionOf := make([]string, joinCustomers)
	for _, id := range perm {
		t := int64(1 + rng.Intn(5))
		r := joinRegions[rng.Intn(len(joinRegions))]
		d.custID = append(d.custID, int64(id))
		d.tier = append(d.tier, t)
		d.region = append(d.region, r)
		tierOf[id], regionOf[id] = t, r
	}
	type acc struct {
		qty    int64
		amount float64
		n      int64
	}
	var order []int64
	groups := map[int64]*acc{}
	for i := 0; i < joinOrders; i++ {
		c := int64(rng.Intn(joinCustomers))
		q := int64(1 + rng.Intn(20))
		a := float64(rng.Intn(50_000)) / 100
		d.orderID = append(d.orderID, int64(i))
		d.orderCust = append(d.orderCust, c)
		d.qty = append(d.qty, q)
		d.amount = append(d.amount, a)
		if tierOf[c] < joinTierCut {
			continue
		}
		g := groups[c]
		if g == nil {
			g = &acc{}
			groups[c] = g
			order = append(order, c)
		}
		g.qty += q
		g.amount += a
		g.n++
	}
	rank := make([]int, len(order))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(i, j int) bool { return groups[order[rank[i]]].qty > groups[order[rank[j]]].qty })
	n := len(rank)
	t := &table{labels: make([]int64, n)}
	region, cust, n64 := make([]string, n), make([]int64, n), make([]int64, n)
	qty, amount := make([]float64, n), make([]float64, n)
	for i, r := range rank {
		c := order[r]
		g := groups[c]
		t.labels[i] = int64(r)
		region[i], cust[i], qty[i], amount[i], n64[i] = regionOf[c], c, float64(g.qty), g.amount, g.n
	}
	t.cols = []column{
		strCol("region", region),
		intCol("cust_id", cust),
		// Both engines type a sum as float, integer inputs too; an integer
		// sum below 2^53 is exact in float64, so it compares exactly.
		fltCol("qty", qty, nil, false),
		fltCol("amount", amount, nil, true),
		intCol("orders", n64),
	}
	return d, t
}

// frames builds the typed input frames: set-up work, timed as such.
func (d *joinData) frames() (orders, customers *core.DataFrame, err error) {
	orders, err = core.New([]string{"order_id", "cust_id", "qty", "amount"}, []vector.Vector{
		vector.NewInt(d.orderID, nil), vector.NewInt(d.orderCust, nil),
		vector.NewInt(d.qty, nil), vector.NewFloat(d.amount, nil),
	})
	if err != nil {
		return nil, nil, err
	}
	customers, err = core.New([]string{"cust_id", "region", "tier"}, []vector.Vector{
		vector.NewInt(d.custID, nil), vector.NewObjectFromStrings(d.region), vector.NewInt(d.tier, nil),
	})
	return orders, customers, err
}

var joinGroupSpec = expr.GroupBySpec{
	Keys: []string{"region", "cust_id"},
	Aggs: []expr.AggSpec{
		{Col: "qty", Agg: expr.AggSum, As: "qty"},
		{Col: "amount", Agg: expr.AggSum, As: "amount"},
		{Col: "", Agg: expr.AggSize, As: "orders"},
	},
}

var joinSortNode = &algebra.Sort{Order: expr.SortOrder{{Col: "qty", Desc: true}}}

func joinQuery(orders, customers *df.DataFrame, eng df.Engine) *df.Query {
	return orders.WithEngine(eng).Lazy().
		Merge(customers.WithEngine(eng).Lazy(), "cust_id").
		Where(df.Ge("tier", df.Int(joinTierCut))).
		GroupBy("region", "cust_id").
		Agg(df.AggSpec{Col: "qty", Agg: "sum", As: "qty"},
			df.AggSpec{Col: "amount", Agg: "sum", As: "amount"},
			df.AggSpec{Col: "", Agg: "size", As: "orders"}).
		SortValuesBy([]df.SortKey{{Col: "qty", Desc: true}})
}

func checkJoin(out *core.DataFrame, want *table) error {
	got, err := tableOf(out, "amount")
	if err != nil {
		return err
	}
	return compareTables(got, want)
}

func runJoinSort(cfg config, rep *report) error {
	data, want := genJoin(cfg.seed)
	if cfg.trace {
		return traceJoin(cfg, rep, data, want)
	}
	return runBatch(cfg, rep, batchCase{
		rowsPerQuery: joinOrders + joinCustomers,
		setup: func() (func() (func() error, error), func(), error) {
			o, c, err := data.frames()
			if err != nil {
				return nil, nil, err
			}
			orders, customers := df.FromFrame(o), df.FromFrame(c)
			pool := exec.NewPool(poolWorkers)
			eng := newModin(pool, 0)
			query := func() (func() error, error) {
				out, err := joinQuery(orders, customers, eng).Collect()
				return func() error { return checkJoin(out.Frame(), want) }, err
			}
			return query, pool.Close, nil
		},
	})
}

// bands cuts df into n contiguous bands.
func bands(df *core.DataFrame, n int) []*core.DataFrame {
	out := make([]*core.DataFrame, n)
	rows := df.NRows()
	for b := range out {
		out[b] = df.SliceRows(b*rows/n, (b+1)*rows/n)
	}
	return out
}

// keyRoute splits every band of df by key hash into buckets: the
// partition phase of a key-shuffled join. Result is [bucket][band].
func keyRoute(sp *spans, df *core.DataFrame, on []string, buckets int) ([][]*core.DataFrame, error) {
	out := make([][]*core.DataFrame, buckets)
	for _, band := range bands(df, poolWorkers) {
		var hashes []uint64
		err := sp.time("algebra.summarize_ms", func() error {
			var err error
			hashes, err = algebra.RowKeyHashes(band, on)
			return err
		})
		if err != nil {
			return nil, err
		}
		var views []*core.DataFrame
		err = sp.time("partition.split_ms", func() error {
			assign := make([]int, len(hashes))
			for i, h := range hashes {
				assign[i] = int(h % uint64(buckets))
			}
			var err error
			views, err = partition.SplitRows(band, assign, buckets)
			return err
		})
		if err != nil {
			return nil, err
		}
		sp.add("partition.routed_rows", float64(band.NRows()))
		for b, v := range views {
			sp.add("partition.routed_mb", float64(wireBytes(v))/mb)
			out[b] = append(out[b], v)
		}
	}
	return out, nil
}

// tracedJoin runs the join-sort query as a sequence of layer calls:
// key-shuffled hash join (route both sides, build and probe per bucket,
// restore input order), filter, band-routed groupby, then range-shuffled
// sort (sample, partition sorted runs, merge per bucket).
func tracedJoin(sp *spans, pool *exec.Pool, orders, customers *core.DataFrame) (*core.DataFrame, error) {
	on := []string{"cust_id"}
	left, err := keyRoute(sp, orders, on, shuffleBuckets)
	if err != nil {
		return nil, err
	}
	right, err := keyRoute(sp, customers, on, shuffleBuckets)
	if err != nil {
		return nil, err
	}
	var joined []*core.DataFrame
	for b := 0; b < shuffleBuckets; b++ {
		var tbl *algebra.JoinTable
		err := sp.time("algebra.join_build_ms", func() error {
			build, err := algebra.VStackFrames(right[b]...)
			if err == nil {
				tbl, err = algebra.BuildJoinTable(build, on)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, piece := range left[b] {
			err := sp.time("algebra.join_probe_ms", func() error {
				li, ri, err := tbl.Probe(piece, on, expr.JoinInner, nil, nil)
				if err != nil {
					return err
				}
				out, err := algebra.AssembleJoin(piece, tbl.Right(), on, false, li, ri)
				joined = append(joined, out)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	// Restore: the key shuffle scattered rows across buckets; the join's
	// output follows the left input's order, which order_id records.
	var restored *core.DataFrame
	err = sp.time("modin.restore_ms", func() error {
		all, err := algebra.VStackFrames(joined...)
		if err == nil {
			restored, err = algebra.SortFrame(all, expr.SortOrder{{Col: "order_id"}}, false)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var kept *core.DataFrame
	err = sp.time("algebra.filter_ms", func() error {
		var err error
		kept, err = algebra.SelectWhereView(restored, expr.WhereCompare("tier", vector.CmpGe, types.IntValue(joinTierCut)))
		if err == nil {
			kept = kept.Compact()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	gs := newGroupShuffle(sp, pool, joinGroupSpec, &pieceSpill{sp: sp}, false)
	for _, band := range bands(kept, poolWorkers) {
		if err := gs.route(band); err != nil {
			return nil, err
		}
	}
	grouped, err := gs.finish()
	if err != nil {
		return nil, err
	}
	return tracedSort(sp, grouped)
}

// tracedSort is the range-shuffled sort: sample keys per band, fold the
// bounds, sort and slice each band into per-bucket runs, merge each bucket.
func tracedSort(sp *spans, df *core.DataFrame) (*core.DataFrame, error) {
	in := bands(df, poolWorkers)
	runs := make([][]*core.DataFrame, shuffleBuckets)
	err := sp.time("modin.sort_partition_ms", func() error {
		var samples [][]types.Value
		for _, band := range in {
			s, err := modin.SampleSortKeys(band, joinSortNode)
			if err != nil {
				return err
			}
			samples = append(samples, s...)
		}
		bounds := modin.PlanSortBounds(samples, shuffleBuckets, joinSortNode)
		for _, band := range in {
			pieces, err := modin.PartitionSortedBand(band, joinSortNode, bounds, shuffleBuckets)
			if err != nil {
				return err
			}
			for b, p := range pieces {
				runs[b] = append(runs[b], p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for b := range runs {
		for _, r := range runs[b] {
			sp.add("partition.routed_rows", float64(r.NRows()))
		}
	}
	var out *core.DataFrame
	err = sp.time("modin.sort_merge_ms", func() error {
		merged := make([]*core.DataFrame, shuffleBuckets)
		for b := range runs {
			var err error
			if merged[b], err = modin.MergeSortBucket(runs[b], joinSortNode); err != nil {
				return err
			}
		}
		var err error
		out, err = algebra.VStackFrames(merged...)
		return err
	})
	return out, err
}

func traceJoin(cfg config, rep *report, data *joinData, want *table) error {
	o, c, err := data.frames()
	if err != nil {
		return err
	}
	orders, customers := df.FromFrame(o), df.FromFrame(c)
	sp := newSpans()
	pool := exec.NewPool(poolWorkers)
	defer pool.Close()
	eng := newModin(pool, 0)
	extra := map[string]float64{}
	var traced, untraced []float64
	deadline := cfg.deadline()
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		runtime.GC()
		t0 := time.Now()
		out, err := tracedJoin(sp, pool, o, c)
		traced = append(traced, msSince(t0))
		rep.outcome(err, checkIf(err, func() error { return checkJoin(out, want) }))

		q := joinQuery(orders, customers, eng)
		planLayers(sp, q, eng)
		runtime.GC()
		before, st := memSnapshot(), engineCounters(eng)
		t0 = time.Now()
		res, err := q.Collect()
		untraced = append(untraced, msSince(t0))
		sp.add("go.gc_cycles", float64(diffMem(before, memSnapshot()).gcCycles))
		engineCounters(eng).addDelta(sp, st)
		rep.outcome(err, checkIf(err, func() error { return checkJoin(res.Frame(), want) }))

		t0 = time.Now()
		base, err := joinQuery(orders, customers, df.NewBaselineEngine()).Collect()
		sp.add("eager.query_ms", msSince(t0))
		rep.outcome(err, checkIf(err, func() error { return checkJoin(base.Frame(), want) }))
		sp.endQuery()
	}
	traceOverhead(extra, traced, untraced)
	emitLayers(rep, sp, extra)
	return nil
}
