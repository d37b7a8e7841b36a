package main

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vector"
)

// floatTol is the one relative tolerance float sums and means are compared
// within: engines add partial sums in band and bucket order, the reference
// adds row by row, so the last bits may differ. Keys, counts, sizes, mins,
// maxes, row labels, row count and row order are compared exactly.
const floatTol = 1e-9

// All-null-group convention (pandas): a group whose aggregated cells are all
// null has sum 0 and count 0, its mean, min and max are null, and size
// still counts its rows. The references encode exactly this.

// column is one checked result column in plain Go form. Exactly one of
// str, ints, flts is set; null marks null cells.
type column struct {
	name   string
	str    []string
	ints   []int64
	flts   []float64
	null   []bool
	approx bool // floats compared within floatTol instead of exactly
}

func (c *column) len() int {
	switch {
	case c.str != nil:
		return len(c.str)
	case c.ints != nil:
		return len(c.ints)
	default:
		return len(c.flts)
	}
}

// table is a checked result: its row labels and columns, in order.
type table struct {
	labels []int64
	cols   []column
}

func (t *table) rows() int { return len(t.labels) }

func (t *table) names() []string {
	out := make([]string, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.name
	}
	return out
}

// compareTables reports the first difference between got and want.
func compareTables(got, want *table) error {
	if got.rows() != want.rows() {
		return fmt.Errorf("row count %d, want %d", got.rows(), want.rows())
	}
	if len(got.cols) != len(want.cols) {
		return fmt.Errorf("columns %v, want %v", got.names(), want.names())
	}
	for i := range got.labels {
		if got.labels[i] != want.labels[i] {
			return fmt.Errorf("row %d label %d, want %d", i, got.labels[i], want.labels[i])
		}
	}
	for j := range want.cols {
		g, w := &got.cols[j], &want.cols[j]
		if g.name != w.name {
			return fmt.Errorf("column %d is %q, want %q", j, g.name, w.name)
		}
		if g.len() != want.rows() {
			return fmt.Errorf("column %q has %d cells, want %d", w.name, g.len(), want.rows())
		}
		for i := 0; i < want.rows(); i++ {
			if err := compareCell(g, w, i); err != nil {
				return fmt.Errorf("row %d column %q: %v", i, w.name, err)
			}
		}
	}
	return nil
}

func compareCell(g, w *column, i int) error {
	gn, wn := g.null != nil && g.null[i], w.null != nil && w.null[i]
	if gn != wn {
		return fmt.Errorf("null=%v, want null=%v", gn, wn)
	}
	if wn {
		return nil
	}
	switch {
	case w.str != nil:
		if g.str == nil || g.str[i] != w.str[i] {
			return fmt.Errorf("got %s, want %q", g.cell(i), w.str[i])
		}
	case w.ints != nil:
		if g.ints == nil || g.ints[i] != w.ints[i] {
			return fmt.Errorf("got %s, want %d", g.cell(i), w.ints[i])
		}
	default:
		var gv float64
		switch {
		case g.flts != nil:
			gv = g.flts[i]
		case g.ints != nil:
			gv = float64(g.ints[i])
		default:
			return fmt.Errorf("got %s, want float %v", g.cell(i), w.flts[i])
		}
		if !floatsMatch(gv, w.flts[i], w.approx) {
			return fmt.Errorf("got %v, want %v", gv, w.flts[i])
		}
	}
	return nil
}

func floatsMatch(got, want float64, approx bool) bool {
	if !approx {
		return got == want
	}
	return math.Abs(got-want) <= floatTol*math.Max(1, math.Abs(want))
}

func (c *column) cell(i int) string {
	switch {
	case c.str != nil:
		return strconv.Quote(c.str[i])
	case c.ints != nil:
		return strconv.FormatInt(c.ints[i], 10)
	default:
		return strconv.FormatFloat(c.flts[i], 'g', -1, 64)
	}
}

// tableOf extracts a result frame through its typed columns. approx names
// the float columns compared within floatTol.
func tableOf(df *core.DataFrame, approx ...string) (*table, error) {
	t := &table{}
	labels := df.RowLabels()
	ld, lnull, lidx, ok := vector.IntData(labels)
	if !ok {
		return nil, fmt.Errorf("row labels are %T, want positional integers", labels)
	}
	t.labels = make([]int64, df.NRows())
	for i := range t.labels {
		k := i
		if lidx != nil {
			k = lidx[i]
		}
		if lnull != nil && lnull[k] {
			return nil, fmt.Errorf("row %d has a null label", i)
		}
		t.labels[i] = ld[k]
	}
	for j := 0; j < df.NCols(); j++ {
		col, err := columnOf(df.ColName(j), df.TypedCol(j), df.Domain(j))
		if err != nil {
			return nil, err
		}
		for _, a := range approx {
			col.approx = col.approx || a == col.name
		}
		t.cols = append(t.cols, col)
	}
	return t, nil
}

func columnOf(name string, v vector.Vector, d types.Domain) (column, error) {
	c := column{name: name}
	n := v.Len()
	c.null = make([]bool, n)
	switch d {
	case types.Int:
		data, nulls, idx, ok := vector.IntData(v)
		if !ok {
			return c, fmt.Errorf("column %q: int domain without int storage (%T)", name, v)
		}
		c.ints = make([]int64, n)
		for i := 0; i < n; i++ {
			k := i
			if idx != nil {
				k = idx[i]
			}
			c.ints[i] = data[k]
			c.null[i] = nulls != nil && nulls[k]
		}
	case types.Float:
		data, nulls, idx, ok := vector.FloatData(v)
		if !ok {
			return c, fmt.Errorf("column %q: float domain without float storage (%T)", name, v)
		}
		c.flts = make([]float64, n)
		for i := 0; i < n; i++ {
			k := i
			if idx != nil {
				k = idx[i]
			}
			c.flts[i] = data[k]
			c.null[i] = (nulls != nil && nulls[k]) || math.IsNaN(data[k])
		}
	case types.Object, types.Category:
		c.str = vector.Strings(v)
		for i := 0; i < n; i++ {
			c.null[i] = v.Value(i).IsNull()
		}
	default:
		return c, fmt.Errorf("column %q: unexpected domain %v", name, d)
	}
	return c, nil
}

// strCol, intCol and fltCol build reference columns.
func strCol(name string, xs []string) column { return column{name: name, str: xs} }
func intCol(name string, xs []int64) column  { return column{name: name, ints: xs} }
func fltCol(name string, xs []float64, null []bool, approx bool) column {
	return column{name: name, flts: xs, null: null, approx: approx}
}

// preview is a served query's checked shape: row count, column names and
// the inlined preview cells.
type preview struct {
	rows  int
	cols  []string
	cells [][]string
}

// comparePreview checks a served result against the reference. Cells that
// parse as numbers on both sides compare within floatTol (a served mean may
// differ from the eager one in its last bits); all others compare exactly.
func comparePreview(got, want *preview) error {
	if got.rows != want.rows {
		return fmt.Errorf("rows %d, want %d", got.rows, want.rows)
	}
	if len(got.cols) != len(want.cols) {
		return fmt.Errorf("columns %v, want %v", got.cols, want.cols)
	}
	for j := range want.cols {
		if got.cols[j] != want.cols[j] {
			return fmt.Errorf("columns %v, want %v", got.cols, want.cols)
		}
	}
	if len(got.cells) != len(want.cells) {
		return fmt.Errorf("%d preview rows, want %d", len(got.cells), len(want.cells))
	}
	for i := range want.cells {
		if len(got.cells[i]) != len(want.cells[i]) {
			return fmt.Errorf("preview row %d has %d cells, want %d", i, len(got.cells[i]), len(want.cells[i]))
		}
		for j, w := range want.cells[i] {
			g := got.cells[i][j]
			if g == w {
				continue
			}
			gf, gerr := strconv.ParseFloat(g, 64)
			wf, werr := strconv.ParseFloat(w, 64)
			if gerr != nil || werr != nil || !floatsMatch(gf, wf, true) {
				return fmt.Errorf("preview cell (%d,%d) %q, want %q", i, j, g, w)
			}
		}
	}
	return nil
}

// checkerSelfTest feeds the checker perturbed copies of known-good results
// and requires every perturbation to be caught: a swapped group, a count
// off by one, a reordered sorted row, an extra row, and a changed served
// preview cell. It also requires the unperturbed results, and a float sum
// moved within tolerance, to pass. w, when set, receives one line per case.
func checkerSelfTest(w io.Writer) error {
	base := func() *table {
		return &table{
			labels: []int64{0, 1, 2, 3},
			cols: []column{
				strCol("key", []string{"k1", "k7", "k3", "k9"}),
				fltCol("val_sum", []float64{10.5, 0, 7.25, 3}, nil, true),
				intCol("val_count", []int64{3, 0, 2, 1}),
				fltCol("val_min", []float64{1.5, 0, 2, 3}, []bool{false, true, false, false}, false),
				intCol("rows", []int64{4, 2, 2, 1}),
			},
		}
	}
	sorted := func() *table {
		return &table{
			labels: []int64{2, 0, 3, 1},
			cols: []column{
				strCol("cust", []string{"c2", "c0", "c3", "c1"}),
				intCol("qty", []int64{9, 5, 5, 1}),
			},
		}
	}
	prev := func() *preview {
		return &preview{rows: 12, cols: []string{"vendor_id", "total_amount"},
			cells: [][]string{{"CMT", "12.5"}, {"VTS", "33.25"}}}
	}
	type tcase struct {
		name   string
		mutate func() error
		caught bool // the checker must report a difference
	}
	cases := []tcase{
		{"unchanged groups", func() error { return compareTables(base(), base()) }, false},
		{"unchanged sort", func() error { return compareTables(sorted(), sorted()) }, false},
		{"unchanged preview", func() error { return comparePreview(prev(), prev()) }, false},
		{"sum within tolerance", func() error {
			g := base()
			g.cols[1].flts[0] *= 1 + floatTol/10
			return compareTables(g, base())
		}, false},
		{"swapped group", func() error {
			g := base()
			for j := range g.cols {
				c := &g.cols[j]
				switch {
				case c.str != nil:
					c.str[0], c.str[2] = c.str[2], c.str[0]
				case c.ints != nil:
					c.ints[0], c.ints[2] = c.ints[2], c.ints[0]
				default:
					c.flts[0], c.flts[2] = c.flts[2], c.flts[0]
				}
				if c.null != nil {
					c.null[0], c.null[2] = c.null[2], c.null[0]
				}
			}
			return compareTables(g, base())
		}, true},
		{"count off by one", func() error {
			g := base()
			g.cols[2].ints[2]++
			return compareTables(g, base())
		}, true},
		{"reordered sorted row", func() error {
			g := sorted()
			g.labels[1], g.labels[2] = g.labels[2], g.labels[1]
			g.cols[0].str[1], g.cols[0].str[2] = g.cols[0].str[2], g.cols[0].str[1]
			return compareTables(g, sorted())
		}, true},
		{"extra row", func() error {
			g := sorted()
			g.labels = append(g.labels, 4)
			g.cols[0].str = append(g.cols[0].str, "c4")
			g.cols[1].ints = append(g.cols[1].ints, 0)
			return compareTables(g, sorted())
		}, true},
		{"changed preview cell", func() error {
			g := prev()
			g.cells[1][1] = "33.5"
			return comparePreview(g, prev())
		}, true},
		{"null min replaced", func() error {
			g := base()
			g.cols[3].null[1] = false
			return compareTables(g, base())
		}, true},
	}
	for _, c := range cases {
		err := c.mutate()
		if w != nil {
			fmt.Fprintf(w, "%-22s -> %v\n", c.name, err)
		}
		if c.caught && err == nil {
			return fmt.Errorf("checker missed: %s", c.name)
		}
		if !c.caught && err != nil {
			return fmt.Errorf("checker rejected a correct result (%s): %v", c.name, err)
		}
	}
	if w != nil {
		fmt.Fprintln(w, "checker self-test: every perturbation caught")
	}
	return nil
}
