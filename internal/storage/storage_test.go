package storage

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vector"
)

func frame(t *testing.T, rows int) *core.DataFrame {
	t.Helper()
	records := make([][]any, rows)
	for i := range records {
		var v any = float64(i) * 1.5
		if i%7 == 0 {
			v = nil
		}
		records[i] = []any{i, "name-" + string(rune('a'+i%26)), v}
	}
	return core.MustFromRecords([]string{"id", "name", "score"}, records)
}

func newStore(t *testing.T, budget int) *Store {
	t.Helper()
	s, err := New(budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t, 0)
	df := frame(t, 20)
	if err := s.Put("a", df); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(df) {
		t.Error("round trip mismatch")
	}
	if !s.Contains("a") || s.Contains("b") {
		t.Error("contains wrong")
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t, 0)
	if _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestSpillAndReload(t *testing.T) {
	s := newStore(t, 100) // tiny budget: ~1.5 frames of 20x3
	a, b, c := frame(t, 20), frame(t, 20), frame(t, 20)
	if err := s.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", b); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", c); err != nil {
		t.Fatal(err)
	}
	_, spills, _ := s.Stats()
	if spills == 0 {
		t.Fatal("expected spills under tiny budget")
	}
	// The spilled frame reloads from disk with identical content.
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Errorf("spilled frame corrupted:\n%s\nvs\n%s", got, a)
	}
	_, _, loads := s.Stats()
	if loads == 0 {
		t.Error("expected a disk load")
	}
	// Resident usage respects the budget (keep-frame overshoot aside).
	resident, _, _ := s.Stats()
	if resident > 2*100 {
		t.Errorf("resident = %d cells, budget 100", resident)
	}
}

func TestLRUSpillsOldest(t *testing.T) {
	s := newStore(t, 100)
	s.Put("old", frame(t, 20))
	s.Put("new", frame(t, 20))
	// "old" is least recently used and should have spilled; "new" should
	// be resident.
	if _, err := s.Get("new"); err != nil {
		t.Fatal(err)
	}
	_, spills, loads := s.Stats()
	if spills != 1 {
		t.Errorf("spills = %d", spills)
	}
	if loads != 0 {
		t.Errorf("getting the resident frame should not load, loads = %d", loads)
	}
}

func TestDeleteAndOverwrite(t *testing.T) {
	s := newStore(t, 0)
	s.Put("k", frame(t, 5))
	s.Delete("k")
	if s.Contains("k") {
		t.Error("delete failed")
	}
	s.Delete("k") // idempotent
	s.Put("k", frame(t, 5))
	s.Put("k", frame(t, 10)) // overwrite
	got, err := s.Get("k")
	if err != nil || got.NRows() != 10 {
		t.Error("overwrite wrong")
	}
}

func TestCloseDropsEverything(t *testing.T) {
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", frame(t, 5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Contains("k") {
		t.Error("close should drop entries")
	}
}

// fidelityFrame holds what a spill through rendered strings loses: sub-second
// Datetime cells, an Int column whose declared domain is still
// Unspecified, and an Int column label.
func fidelityFrame(t *testing.T) *core.DataFrame {
	t.Helper()
	base := time.Date(2020, 3, 1, 8, 0, 0, 0, time.UTC).UnixNano()
	ts := []int64{base + 1, base + 250_000_000, base + 999_999_999}
	df, err := core.Build(
		[]vector.Vector{
			vector.NewDatetime(ts, []bool{false, true, false}),
			vector.NewInt([]int64{7, -3, 42}, nil),
		},
		nil,
		[]types.Value{types.String("ts"), types.IntValue(2020)},
		[]types.Domain{types.Datetime, types.Unspecified},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestTypedDomainsSurviveSpill(t *testing.T) {
	s := newStore(t, 1) // everything spills
	df := frame(t, 30)
	// Force induction so declared domains exist before spilling.
	for j := 0; j < df.NCols(); j++ {
		df.Domain(j)
	}
	s.Put("typed", df)
	s.Put("fidelity", fidelityFrame(t))
	s.Put("evict", frame(t, 30)) // pushes both out
	got, err := s.Get("typed")
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain(0).String() != "int" || got.Domain(2).String() != "float" {
		t.Errorf("domains after reload: %v %v", got.Domain(0), got.Domain(2))
	}
	if !got.Equal(df) {
		t.Error("typed reload mismatch")
	}
	got, err = s.Get("fidelity")
	if err != nil {
		t.Fatal(err)
	}
	// Before Equal, which induces and memoizes the domain.
	if d := got.DeclaredDomain(1); d != types.Unspecified {
		t.Errorf("declared domain after reload = %v, want unspecified", d)
	}
	if want := fidelityFrame(t); !got.Equal(want) {
		t.Errorf("fidelity reload mismatch:\n%s\nvs\n%s", got, want)
	}
}

// TestTruncatedSpillFileFailsGet: a spill file cut short on disk must make
// Get fail with an error naming the key, not panic or return a frame.
func TestTruncatedSpillFileFailsGet(t *testing.T) {
	s := newStore(t, 0)
	if err := s.Put("cut", frame(t, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("cut"); err != nil {
		t.Fatal(err)
	}
	path := s.entries["cut"].path
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("cut")
	if err == nil {
		t.Fatalf("truncated spill loaded a %dx%d frame", got.NRows(), got.NCols())
	}
	if !strings.Contains(err.Error(), `"cut"`) {
		t.Errorf("error does not name the key: %v", err)
	}
}

func TestNullMaskAuthoritativeOverLiterals(t *testing.T) {
	// An Object cell holding the literal string "NA" must survive a
	// spill as a string, not become null.
	df := core.MustFromRecords([]string{"s"}, [][]any{{"NA"}, {nil}, {"x"}})
	s := newStore(t, 1)
	s.Put("tricky", df)
	s.Put("evict", frame(t, 50))
	got, err := s.Get("tricky")
	if err != nil {
		t.Fatal(err)
	}
	if got.Value(0, 0).IsNull() || got.Value(0, 0).Str() != "NA" {
		t.Errorf("literal NA string corrupted: %#v", got.Value(0, 0))
	}
	if !got.Value(1, 0).IsNull() {
		t.Error("true null lost")
	}
}
