package cluster

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/types"
	"repro/internal/vector"
)

// csvScan builds a buffer-backed scan node over text, probing the header
// the way df.ScanCSVString does.
func csvScan(t *testing.T, text string, bandRows int) *algebra.Scan {
	t.Helper()
	data := []byte(text)
	s := &algebra.Scan{
		Name: "csv",
		Data: data,
		Open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		},
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
		BandRows: bandRows,
	}
	cur, err := s.Cursor()
	if err != nil {
		t.Fatalf("cursor: %v", err)
	}
	s.Columns = cur.Columns()
	cur.Close()
	return s
}

// genCSV builds a deterministic mixed-type CSV with nRows data rows.
func genCSV(nRows int) string {
	var b strings.Builder
	b.WriteString("k,v,name\n")
	for i := 0; i < nRows; i++ {
		fmt.Fprintf(&b, "%d,%d,item-%d\n", i%7, i*3%101, i%13)
	}
	return b.String()
}

// startCluster returns a scheduler over n in-process workers, cleaned up
// with the test.
func startCluster(t *testing.T, n int) (*Scheduler, []*Worker) {
	t.Helper()
	s, workers, err := StartInProcess(n, WithHeartbeat(0))
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return s, workers
}

// checkSame runs the plan on both backends and requires cell-identical
// frames and a distributed (not fallen-back) cluster run.
func checkSame(t *testing.T, s *Scheduler, plan algebra.Node) {
	t.Helper()
	before := s.ClusterStats().Distributed
	got, err := s.Execute(plan)
	if err != nil {
		t.Fatalf("cluster execute: %v", err)
	}
	want, err := modin.New().Execute(plan)
	if err != nil {
		t.Fatalf("local execute: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("distributed result differs from local:\n got %dx%d\nwant %dx%d",
			got.NRows(), got.NCols(), want.NRows(), want.NCols())
	}
	if s.ClusterStats().Distributed != before+1 {
		t.Fatalf("plan did not distribute (stats %+v)", s.ClusterStats())
	}
}

func whereGE(col string, v int64) *algebra.Selection {
	return &algebra.Selection{Where: expr.WhereCompare(col, vector.CmpGe, types.IntValue(v))}
}

func TestDistributedChainMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(900), 128)
	sel := whereGE("v", 20)
	sel.Input = scan
	plan := algebra.Node(&algebra.Projection{Input: sel, Cols: []string{"k", "v"}})
	checkSame(t, s, plan)
}

func TestDistributedGroupByMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 3)
	scan := csvScan(t, genCSV(1100), 97)
	sel := whereGE("v", 5)
	sel.Input = scan
	gb := &algebra.GroupBy{Input: sel, Spec: expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggMean, As: "avg"}},
	}}
	plan := algebra.Node(&algebra.Selection{Input: gb, Where: expr.WhereCompare("v_sum", vector.CmpGt, types.IntValue(0))})
	checkSame(t, s, plan)
}

func TestDistributedGroupByAsLabels(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(400), 64)
	plan := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys:     []string{"name"},
		Aggs:     []expr.AggSpec{{Col: "v", Agg: expr.AggMax}},
		AsLabels: true,
	}}
	checkSame(t, s, plan)
}

func TestDistributedSortMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 3)
	scan := csvScan(t, genCSV(800), 110)
	sort := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "v", Desc: true}, {Col: "name"}}}
	plan := algebra.Node(&algebra.Projection{Input: sort, Cols: []string{"v", "name"}})
	checkSame(t, s, plan)
}

func TestDistributedSourceFrameGroupBy(t *testing.T) {
	s, _ := startCluster(t, 2)
	n := 500
	keys := make([]string, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("g%d", i%11)
		vals[i] = int64(i % 29)
	}
	df := core.MustNew([]string{"k", "v"}, []vector.Vector{
		vector.NewObjectFromStrings(keys), vector.NewInt(vals, nil),
	})
	plan := &algebra.GroupBy{Input: &algebra.Source{DF: df}, Spec: expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggCount}},
	}}
	checkSame(t, s, plan)
}

func TestDistributedRenameChain(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(300), 50)
	ren := &algebra.Rename{Input: scan, Mapping: map[string]string{"v": "value", "k": "key"}}
	sel := whereGE("value", 10)
	sel.Input = ren
	checkSame(t, s, sel)
}

// Opaque predicates and unsupported operators must fall back to the local
// engine, transparently — and so must a structured Where whose operand has
// no binary form (Composite), under the same reason.
func TestFallbackForOpaquePlans(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(100), 40)
	plans := map[string]algebra.Node{
		"opaque predicate": &algebra.Selection{
			Input: scan,
			Pred:  func(r expr.Row) bool { return true },
			Desc:  "opaque",
		},
		"composite operand": &algebra.Selection{
			Input: scan,
			Where: expr.WhereCompare("k", vector.CmpNe, types.CompositeValue(core.Empty())),
		},
	}
	for name, plan := range plans {
		before := s.ClusterStats()
		got, err := s.Execute(plan)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		want, err := modin.New().Execute(plan)
		if err != nil {
			t.Fatalf("%s: local: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: fallback result differs from local", name)
		}
		after := s.ClusterStats()
		if after.Fallback != before.Fallback+1 || after.Distributed != before.Distributed {
			t.Fatalf("%s: expected fallback, stats %+v", name, after)
		}
		if after.FallbackReasons["opaque closure"] != before.FallbackReasons["opaque closure"]+1 {
			t.Fatalf("%s: fallback reasons %v, want one more \"opaque closure\"", name, after.FallbackReasons)
		}
		if desc := s.DescribePhysical(plan); !strings.Contains(desc, "cluster: local fallback (opaque closure)\n") {
			t.Fatalf("%s: explain lacks the fallback reason:\n%s", name, desc)
		}
	}
}

// A remote application error (unknown sort column reaches execution) must
// re-run locally so the caller sees the local engine's error identity.
func TestRemoteErrorRerunsLocally(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(100), 40)
	plan := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "nope"}}}
	_, errCluster := s.Execute(plan)
	_, errLocal := modin.New().Execute(plan)
	if errCluster == nil || errLocal == nil {
		t.Fatalf("expected errors, got cluster=%v local=%v", errCluster, errLocal)
	}
	if errCluster.Error() != errLocal.Error() {
		t.Fatalf("error identity differs:\ncluster: %v\nlocal:   %v", errCluster, errLocal)
	}
	if s.ClusterStats().LocalReruns == 0 {
		t.Fatal("expected a local re-run to be counted")
	}
}

// Killing a worker between the band stage and partition must re-submit the
// lost bands' lineage and still produce the local result.
func TestWorkerLossAfterBands(t *testing.T) {
	s, workers := startCluster(t, 2)
	scan := csvScan(t, genCSV(1000), 90)
	plan := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
	killed := false
	s.OnPhase = func(phase string) {
		if phase == "bands" && !killed {
			killed = true
			workers[0].Close()
		}
	}
	checkSame(t, s, plan)
	st := s.ClusterStats()
	if st.ResubmittedBands == 0 {
		t.Fatalf("expected resubmitted bands, stats %+v", st)
	}
	if st.DeadWorkers == 0 {
		t.Fatalf("expected a dead worker, stats %+v", st)
	}
}

// Killing a worker after partition (pieces routed, merges not yet run)
// exercises the fetch-failure attribution path.
func TestWorkerLossAfterPartition(t *testing.T) {
	s, workers := startCluster(t, 2)
	scan := csvScan(t, genCSV(1200), 80)
	plan := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "v"}, {Col: "k", Desc: true}}}
	killed := false
	s.OnPhase = func(phase string) {
		if phase == "partitioned" && !killed {
			killed = true
			workers[1].Close()
		}
	}
	checkSame(t, s, plan)
	if s.ClusterStats().ResubmittedBands == 0 {
		t.Fatalf("expected resubmitted bands, stats %+v", s.ClusterStats())
	}
}

// Losing every worker exhausts the cluster and falls back to a local
// re-run, still returning the right answer.
func TestAllWorkersLostFallsBack(t *testing.T) {
	s, workers := startCluster(t, 2)
	scan := csvScan(t, genCSV(600), 70)
	plan := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
	killed := false
	s.OnPhase = func(phase string) {
		if !killed {
			killed = true
			for _, w := range workers {
				w.Close()
			}
		}
	}
	got, err := s.Execute(plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want, err := modin.New().Execute(plan)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("fallback result differs from local")
	}
	if s.ClusterStats().LocalReruns == 0 {
		t.Fatalf("expected local re-run, stats %+v", s.ClusterStats())
	}
}

// Merge placement must follow the reported piece bytes: the worker holding
// the most bytes of a bucket hosts its merge.
func TestMergePlacementFollowsBytes(t *testing.T) {
	wa := &workerRef{addr: "a"}
	wb := &workerRef{addr: "b"}
	r := &run{
		workers: []*workerRef{wa, wb},
		bands: []bandState{
			{owner: wa}, {owner: wb}, {owner: wa},
		},
		sizes: [][]int64{
			{100, 5},  // band 0 on a
			{10, 900}, // band 1 on b
			{50, 10},  // band 2 on a
		},
	}
	if got := r.placeMerge(0); got != wa {
		t.Fatalf("bucket 0 placed on %s, want a (150 bytes vs 10)", got.addr)
	}
	if got := r.placeMerge(1); got != wb {
		t.Fatalf("bucket 1 placed on %s, want b (900 bytes vs 15)", got.addr)
	}
}

// splitCSV must cut bands exactly at the record boundaries encoding/csv
// sees — quoted newlines, escaped quotes, blank lines, \r\n — so that
// re-parsing the concatenated ranges reproduces the whole-file parse.
func TestSplitCSVMatchesEncodingCSV(t *testing.T) {
	cases := []string{
		"a,b\n1,2\n3,4\n5,6\n",
		"a,b\n\"x\ny\",2\n\"he said \"\"hi\"\"\",4\n",
		"a,b\r\n1,2\r\n\r\n3,4\r\n",
		"a,b\n1,2\n\n\n3,4\n5,6", // blank lines + unterminated final record
		"a,b\n\"q,uo\",\"\"\n,\n",
	}
	for ci, text := range cases {
		for _, bandRows := range []int{1, 2, 100} {
			ranges, err := splitCSV(strings.NewReader(text), ',', true, bandRows)
			if err != nil {
				t.Fatalf("case %d: split: %v", ci, err)
			}
			whole, err := core.ReadCSVString(text, core.DefaultCSVOptions())
			if err != nil {
				t.Fatalf("case %d: read: %v", ci, err)
			}
			total := 0
			for _, rng := range ranges {
				sub := text[rng.Offset : rng.Offset+rng.Length]
				cur, err := core.NewCSVCursor(strings.NewReader(sub), core.CSVOptions{Comma: ',', Header: false})
				if err != nil {
					t.Fatalf("case %d: cursor: %v", ci, err)
				}
				band, err := cur.NextBand(rng.Rows + 1)
				if err != nil {
					t.Fatalf("case %d: parse range: %v", ci, err)
				}
				if band.NRows() != rng.Rows {
					t.Fatalf("case %d: range parsed %d rows, split planned %d", ci, band.NRows(), rng.Rows)
				}
				if int64(total) != rng.Row {
					t.Fatalf("case %d: range starts at row %d, want %d", ci, rng.Row, total)
				}
				total += rng.Rows
			}
			if total != whole.NRows() {
				t.Fatalf("case %d bandRows=%d: split covers %d rows, file has %d", ci, bandRows, total, whole.NRows())
			}
		}
	}
}

func TestLocalSchedulerDegenerates(t *testing.T) {
	s := Local()
	scan := csvScan(t, genCSV(50), 10)
	got, err := s.Execute(scan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want, err := modin.New().Execute(scan)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("Local() scheduler differs from modin")
	}
	if s.ClusterStats().Fallback != 1 || s.ClusterStats().Distributed != 0 {
		t.Fatalf("Local() should always fall back, stats %+v", s.ClusterStats())
	}
}
