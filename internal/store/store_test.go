package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func lines(ss ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(ss))
	for i, s := range ss {
		out[i] = json.RawMessage(s)
	}
	return out
}

func TestMemoryCellPutGet(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok := s.GetCell("c1"); ok {
		t.Fatal("empty store claims a cell hit")
	}
	if err := s.PutCell("c1", json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetCell("c1")
	if !ok || string(got) != `{"a":1}` {
		t.Fatalf("got %s ok=%v", got, ok)
	}
	c := s.Counters()
	if c.Entries != 1 || c.CellHits != 1 || c.CellMisses != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestLookupCells(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	s.PutCell("c1", json.RawMessage(`{"a":1}`))
	s.PutCell("c3", json.RawMessage(`{"c":3}`))
	got, hits := s.LookupCells([]string{"c1", "c2", "c3"})
	if hits != 2 || string(got[0]) != `{"a":1}` || got[1] != nil || string(got[2]) != `{"c":3}` {
		t.Fatalf("lookup got %v hits=%d", got, hits)
	}
	if c := s.Counters(); c.CellHits != 2 || c.CellMisses != 1 {
		t.Fatalf("counters %+v", c)
	}

	// LookupAll serves a request only whole, in the order asked, counting
	// one hit per cell; a request missing any cell is a miss that counts
	// nothing and never a short result set.
	all, ok := s.LookupAll([]string{"c3", "c1"})
	if !ok || len(all) != 2 || string(all[0]) != `{"c":3}` || string(all[1]) != `{"a":1}` {
		t.Fatalf("LookupAll got %v ok=%v", all, ok)
	}
	if all, ok := s.LookupAll([]string{"c1", "c2", "c3"}); ok || all != nil {
		t.Fatalf("LookupAll with a missing cell got %v ok=%v", all, ok)
	}
	if c := s.Counters(); c.CellHits != 4 || c.CellMisses != 1 {
		t.Fatalf("counters after LookupAll %+v", c)
	}
}

func TestPutIsImmutable(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	if err := s.PutCell("d", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCell("d", json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.GetCell("d")
	if string(got) != `{"v":1}` {
		t.Fatalf("second put overwrote the entry: %s", got)
	}
	// The stored line is a copy: mutating the caller's bytes afterwards
	// must not corrupt the entry.
	in := json.RawMessage(`{"v":9}`)
	s.PutCell("d2", in)
	in[5] = '0'
	got, _ = s.GetCell("d2")
	if string(got) != `{"v":9}` {
		t.Fatalf("entry aliases caller bytes: %s", got)
	}
}

func TestEmptyDigestRejected(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	if err := s.PutCell("", json.RawMessage(`{}`)); err == nil {
		t.Fatal("empty cell digest accepted")
	}
}

// TestFileBackendSurvivesReopen is the durability half of the acceptance:
// cells put before Close are served after a fresh Open of the same path,
// byte-identical, one by one and as a whole request.
func TestFileBackendSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := lines(`{"grid":"paper","lifetime_min":16.28}`, `{"grid":"paper","lifetime_min":16.9}`, `{"x":1}`)
	cells := []string{"cell-1", "cell-2", "cell-3"}
	for i, d := range cells {
		if err := s.PutCell(d, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.LookupAll(cells)
	if !ok || len(got) != 3 {
		t.Fatalf("request after reopen: %v ok=%v", got, ok)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("line %d drifted: %s vs %s", i, got[i], want[i])
		}
	}
	if line, ok := re.GetCell("cell-2"); !ok || string(line) != string(want[1]) {
		t.Fatalf("cell-2 after reopen: %s ok=%v", line, ok)
	}
	if c := re.Counters(); c.Entries != 3 {
		t.Fatalf("counters after reopen %+v", c)
	}
}

// TestLegacyFormatMigration: a store file holding checksummed cell lines
// next to the retired whole-request record kinds — a "req" index entry as
// the previous format wrote it and an older {"digest":...,"results":[...]}
// record — opens, serves every cell, and quarantines both old records in
// place like any other line that is not a cell (here next to a corrupt
// line). A torn tail after them still truncates back to the intact prefix,
// not to zero.
func TestLegacyFormatMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	file := `{"cell":"cell-a","result":{"v":1},"crc":3394035549}` + "\n" +
		`{"cell":"cell-b","result":{"v":2},"crc":3875830765}` + "\n" +
		`{"req":"old-req","cells":["cell-a","cell-b"],"crc":3288015021}` + "\n" +
		`{"digest":"old-scheme","results":[{"solver":"bestof","lifetime_min":16.28}]}` + "\n" +
		"{not json}\n"
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	cells := []string{"cell-a", "cell-b"}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("store with old record kinds failed to open: %v", err)
	}
	got, ok := s.LookupAll(cells)
	if !ok || string(got[0]) != `{"v":1}` || string(got[1]) != `{"v":2}` {
		t.Fatalf("cells next to old records: %v ok=%v", got, ok)
	}
	if c := s.Counters(); c.Entries != 2 || c.Quarantined != 3 {
		t.Fatalf("replay counters %+v, want 2 entries and 3 quarantined", c)
	}
	// New cells append next to the old records.
	if err := s.PutCell("cell-c", json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The old lines stay part of the intact prefix: a torn tail appended
	// after them truncates back to the cells and the quarantined lines.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"cell":"torn","result":{"x"`)
	f.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.LookupAll(append(cells, "cell-c")); !ok {
		t.Fatal("cells lost when truncating a torn tail behind old records")
	}
	if c := re.Counters(); c.Entries != 3 || c.Quarantined != 3 {
		t.Fatalf("counters after torn tail %+v, want 3 entries and 3 quarantined", c)
	}
}

// TestStoreExposesReplayCounters: replaying a file with one good cell, one
// older whole-request record and one corrupt line reports 1 entry and 2
// quarantined lines, and the probe counters start from the replayed state.
func TestStoreExposesReplayCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	good, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.PutCell("d1", json.RawMessage(`{"lifetime_min":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := `{"digest":"old-scheme","results":[{"lifetime_min":1}]}` + "\n"
	corrupt := "{not json}\n"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(legacy + corrupt); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	c := reopened.Counters()
	if c.Quarantined != 2 {
		t.Fatalf("Quarantined = %d, want 2 (the old digest record and the corrupt line)", c.Quarantined)
	}
	if c.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", c.Entries)
	}
	if c.CellHits != 0 || c.CellMisses != 0 {
		t.Fatalf("probe counters after replay %+v, want 0 hits and 0 misses", c)
	}
	if _, ok := reopened.GetCell("d1"); !ok {
		t.Fatal("replayed cell d1 not served")
	}
	if _, ok := reopened.GetCell("old-scheme"); ok {
		t.Fatal("old digest record served as a cell")
	}
	if c := reopened.Counters(); c.CellHits != 1 || c.CellMisses != 1 {
		t.Fatalf("probe counters %+v, want 1 hit and 1 miss", c)
	}
}

// TestTornTrailingRecordSkipped: a crash mid-append leaves a truncated last
// line; everything before it must still load. The tail here is a torn
// cell-granular record.
func TestTornTrailingRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	s, _ := Open(path)
	s.PutCell("good", json.RawMessage(`{"ok":true}`))
	s.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"cell":"torn","result":{"ok"`)
	f.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.GetCell("good"); !ok {
		t.Fatal("intact record lost behind a torn tail")
	}
	if _, ok := re.GetCell("torn"); ok {
		t.Fatal("torn record surfaced")
	}
	// The reopened store still accepts appends — and because the torn tail
	// was truncated, the append must not glue onto the fragment: a third
	// open has to see both the old record and the new one.
	if err := re.PutCell("after", json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if _, ok := third.GetCell("good"); !ok {
		t.Fatal("original record lost after post-torn append")
	}
	got, ok := third.GetCell("after")
	if !ok || string(got) != `{"v":3}` {
		t.Fatalf("post-torn append lost on reopen: %s ok=%v", got, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := string(rune('a' + i%4))
			s.PutCell(d, json.RawMessage(`{"w":1}`))
			s.GetCell(d)
			s.LookupCells([]string{d})
			s.LookupAll([]string{d})
		}(i)
	}
	wg.Wait()
	if c := s.Counters(); c.Entries != 4 {
		t.Fatalf("counters %+v", c)
	}
}
