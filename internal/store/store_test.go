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

func TestRequestIndexPutGet(t *testing.T) {
	s, _ := Open("")
	defer s.Close()

	if _, ok := s.GetRequest("r1"); ok {
		t.Fatal("empty store claims a request hit")
	}
	cells := []string{"c1", "c2"}
	want := lines(`{"a":1}`, `{"b":2}`)
	if err := s.PutRequest("r1", cells, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetRequest("r1")
	if !ok || len(got) != 2 || string(got[0]) != `{"a":1}` || string(got[1]) != `{"b":2}` {
		t.Fatalf("got %v ok=%v", got, ok)
	}
	c := s.Counters()
	if c.Entries != 2 || c.Requests != 1 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters %+v", c)
	}
	// An index may also be written over cells already present (nil lines).
	if err := s.PutRequest("r2", []string{"c2", "c1"}, nil); err != nil {
		t.Fatal(err)
	}
	got, ok = s.GetRequest("r2")
	if !ok || string(got[0]) != `{"b":2}` || string(got[1]) != `{"a":1}` {
		t.Fatalf("reordered index got %v ok=%v", got, ok)
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
	if err := s.PutRequest("", nil, nil); err == nil {
		t.Fatal("empty request digest accepted")
	}
	if err := s.PutRequest("r", []string{"a", "b"}, lines(`{}`)); err == nil {
		t.Fatal("misaligned lines accepted")
	}
}

// TestFileBackendSurvivesReopen is the durability half of the acceptance:
// cells and request indexes put before Close are served after a fresh Open
// of the same path, byte-identical.
func TestFileBackendSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := lines(`{"grid":"paper","lifetime_min":16.28}`, `{"grid":"paper","lifetime_min":16.9}`)
	if err := s.PutRequest("digest-a", []string{"cell-1", "cell-2"}, want); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCell("cell-3", json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.GetRequest("digest-a")
	if !ok || len(got) != 2 {
		t.Fatalf("digest-a after reopen: %v ok=%v", got, ok)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("line %d drifted: %s vs %s", i, got[i], want[i])
		}
	}
	if line, ok := re.GetCell("cell-2"); !ok || string(line) != string(want[1]) {
		t.Fatalf("cell-2 after reopen: %s ok=%v", line, ok)
	}
	if c := re.Counters(); c.Entries != 3 || c.Requests != 1 {
		t.Fatalf("counters after reopen %+v", c)
	}
}

// TestLegacyFormatMigration: a store file written by the previous
// whole-request format (PR 4: {"digest":...,"results":[...]} records) opens
// cleanly and accepts new cell-granular appends alongside the old records.
// The legacy entries themselves are detected but not loaded — the digest
// scheme changed with cell granularity, so no new submission can address
// them; keeping the file readable (and its torn-tail handling intact) is
// the migration, and the store rebuilds organically from new runs.
func TestLegacyFormatMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	legacy := `{"digest":"old-req","results":[{"solver":"bestof","lifetime_min":16.28},{"solver":"optimal","lifetime_min":16.9}]}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("legacy-format store failed to open: %v", err)
	}
	if _, ok := s.GetRequest("old-req"); ok {
		t.Fatal("retired-scheme digest served (nothing can ever compute this key again)")
	}
	if c := s.Counters(); c.Entries != 0 || c.Requests != 0 {
		t.Fatalf("legacy records loaded as live entries: %+v", c)
	}
	// New cell-granular entries append next to the legacy record.
	if err := s.PutRequest("new-req", []string{"cell-a"}, lines(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if line, ok := re.GetCell("cell-a"); !ok || string(line) != `{"v":1}` {
		t.Fatalf("new cell lost next to legacy records: %s ok=%v", line, ok)
	}
	if got, ok := re.GetRequest("new-req"); !ok || string(got[0]) != `{"v":1}` {
		t.Fatalf("new request index lost next to legacy records: %v ok=%v", got, ok)
	}
	// The legacy line must still be part of the intact prefix: a torn tail
	// appended after it truncates back to the legacy+new records, not to
	// zero.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"cell":"torn","result":{"x"`)
	f.Close()
	third, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if _, ok := third.GetCell("cell-a"); !ok {
		t.Fatal("cell lost when truncating a torn tail behind legacy records")
	}
}

// TestStoreExposesReplayCounters: replaying a file with one cell record, one
// legacy whole-request record and one corrupt line loads the cell and counts
// each of the other two in its own replay counter.
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
	if c.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined)
	}
	if c.LegacySkipped != 1 {
		t.Fatalf("LegacySkipped = %d, want 1", c.LegacySkipped)
	}
	if c.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", c.Entries)
	}
}

// TestTornTrailingRecordSkipped: a crash mid-append leaves a truncated last
// line; everything before it must still load. The tail here is a torn
// cell-granular record.
func TestTornTrailingRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	s, _ := Open(path)
	s.PutCell("good", json.RawMessage(`{"ok":true}`))
	s.PutRequest("req", []string{"good"}, nil)
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
	if _, ok := re.GetRequest("req"); !ok {
		t.Fatal("request index lost behind a torn tail")
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
			s.PutRequest("r-"+d, []string{d}, nil)
			s.GetRequest("r-" + d)
		}(i)
	}
	wg.Wait()
	if c := s.Counters(); c.Entries != 4 || c.Requests != 4 {
		t.Fatalf("counters %+v", c)
	}
}
