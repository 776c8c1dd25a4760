// Package store is a content-addressed result store whose unit is a single
// scenario cell: one NDJSON result line keyed by the cell's content digest
// (see service.CellDigests for the keying rule). The cell is the store's
// only record: a whole request is served by looking up its ordered cell
// digests (LookupAll), so an identical resubmission is byte-identical to
// the run that produced it without an index of its own.
//
// Cell granularity is what makes overlapping sweeps incremental: the
// paper's experiment grids overlap heavily (change one load in a 200-cell
// grid and 180 cells are unchanged), and a store keyed by whole requests
// re-evaluates everything on any change. Here a new sweep reuses every cell
// any earlier sweep already computed and evaluates only the rest.
//
// Entries are immutable — a cell digest maps to exactly one byte sequence —
// and the optional append-only file backend survives restarts. The file
// layer is built for an unhealthy world:
//
//   - Every record carries a CRC-32C checksum over its content, so
//     corruption anywhere in the file — not just a torn tail — is detected
//     on replay. Corrupt complete lines are quarantined (skipped and
//     counted, the rest of the file still loads); only the newline-less
//     tail of a crash mid-append is truncated away.
//   - Transient append errors are retried with capped exponential backoff
//     plus jitter. A put that exhausts its retries trips a circuit breaker:
//     the store enters a degraded read-only mode where reads and the whole
//     evaluation path keep working, puts fail fast with ErrDegraded, and
//     after a cooldown the next put probes the backend (half-open) and
//     closes the breaker on success. The mode is visible in Counters.
//   - A partial write left by an exhausted retry sequence is repaired on
//     the next successful append by terminating the fragment with a
//     newline, turning it into one quarantinable line instead of letting
//     the new record glue onto it.
//
// CRC-less records from files written before checksumming are accepted
// unverified. Lines of the retired whole-request kinds ("req" index
// entries, older "digest" records) are not cells: replay quarantines them
// like any other unrecognized line.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/obs"
)

// ErrDegraded is returned by puts while the write circuit is open: the
// backend failed persistently, the store serves reads only, and new results
// are not cached until a cooldown probe succeeds.
var ErrDegraded = errors.New("store: degraded: write circuit open")

// File is the store's append-only backend. *os.File satisfies it via the
// osFile adapter; fault-injection wrappers (internal/faults) decorate it.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// SyncPolicy controls when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncNever writes records to the OS per put but fsyncs only on Close:
	// fastest, and a process crash loses nothing — only an OS crash or
	// power failure can lose recent puts.
	SyncNever SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncInterval,
	// piggybacked on puts: bounds OS-crash loss to the interval without a
	// background goroutine.
	SyncInterval
	// SyncAlways fsyncs every put: maximal durability, one fsync per put.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses "never", "interval", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNever, fmt.Errorf("store: unknown sync policy %q (want never, interval, or always)", s)
}

// Options configures OpenWith. The zero value (plus a Path) reproduces
// Open's behavior: no fsync until Close, three retries with 2ms-base
// backoff, a 10s breaker cooldown.
type Options struct {
	// Path of the append-only NDJSON file; empty = memory-only.
	Path string
	// Sync is the fsync policy; SyncInterval uses SyncInterval as the
	// period (default 1s).
	Sync         SyncPolicy
	SyncInterval time.Duration
	// RetryAttempts is how many times a failed append is retried before
	// tripping the breaker (default 3; negative = no retries). RetryBase
	// and RetryCap bound the exponential backoff between attempts
	// (defaults 2ms and 50ms; the sleep is jittered in [d/2, d]).
	RetryAttempts int
	RetryBase     time.Duration
	RetryCap      time.Duration
	// BreakerCooldown is how long puts fail fast after the breaker trips
	// before one probes the backend again (default 10s).
	BreakerCooldown time.Duration
	// WrapFile, when set, decorates the opened backend — the
	// fault-injection hook. Never called for memory-only stores.
	WrapFile func(File) File
	// AppendLatency, when set, observes the wall-clock seconds of each
	// commit (write + retries + fsync), including failed ones. Nil is a
	// no-op.
	AppendLatency *obs.Histogram
	// Clock and Sleep are injectable for deterministic tests (defaults
	// time.Now and time.Sleep).
	Clock func() time.Time
	Sleep func(time.Duration)
}

// Store maps cell digests to immutable result lines. It is safe for
// concurrent use. The zero value is not usable; call Open or OpenWith.
type Store struct {
	mu    sync.Mutex
	cells map[string]json.RawMessage
	f     File   // nil = memory-only
	pend  []byte // scratch: the record of the put being committed

	// Write-circuit state (guarded by mu).
	degraded bool      // breaker open: puts fail fast
	openedAt time.Time // when the breaker tripped
	tornTail bool      // last physical write may have ended mid-record

	retries  int
	base     time.Duration
	cap      time.Duration
	cooldown time.Duration
	syncPol  SyncPolicy
	syncEvry time.Duration
	lastSync time.Time
	now      func() time.Time
	sleep    func(time.Duration)
	rng      *rand.Rand // backoff jitter (guarded by mu)

	cellHits, cellMisses atomic.Int64 // per-cell probes

	appendLatency *obs.Histogram // commit latency, nil = not observed

	quarantined  atomic.Int64 // corrupt or unrecognized complete lines skipped on replay
	appendErrors atomic.Int64 // puts that exhausted retries (breaker trips)
	appendRetry  atomic.Int64 // individual append retries
	droppedPuts  atomic.Int64 // puts rejected fast while degraded
	syncErrors   atomic.Int64 // fsync failures (data written, durability degraded)
}

// record is one append-only file line: a cell digest and its result line.
// CRC is a CRC-32C over both; records written before checksumming lack it
// and are accepted unverified.
type record struct {
	Cell   string          `json:"cell,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// CRC guards the fields above. A true checksum of zero (1 in 2^32) is
	// indistinguishable from "absent" and replays unverified — an
	// accepted, harmless corner.
	CRC uint32 `json:"crc,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum covers the record's content fields with unambiguous framing
// (a tag plus a NUL separator, so field boundaries can't alias). Existing
// files were checksummed with exactly this framing, so it must not change.
func (rec *record) checksum() uint32 {
	h := crc32.New(crcTable)
	io.WriteString(h, "c\x00")
	io.WriteString(h, rec.Cell)
	h.Write([]byte{0})
	h.Write(rec.Result)
	return h.Sum32()
}

// Open builds a store with default options. An empty path means
// memory-only; otherwise the path is an append-only NDJSON file: existing
// records are replayed into memory and every future put is appended.
func Open(path string) (*Store, error) {
	return OpenWith(Options{Path: path})
}

// OpenWith builds a store from Options. Replay quarantines corrupt
// complete lines (bad JSON, CRC mismatch, anything but a cell) — counted
// in Counters.Quarantined — and truncates only a torn newline-less tail,
// so a crash mid-append loses at most the put in progress and corruption
// elsewhere in the file never takes the records after it down too.
func OpenWith(opts Options) (*Store, error) {
	s := &Store{
		cells:    make(map[string]json.RawMessage),
		retries:  3,
		base:     2 * time.Millisecond,
		cap:      50 * time.Millisecond,
		cooldown: 10 * time.Second,
		syncPol:  opts.Sync,
		syncEvry: time.Second,
		now:      time.Now,
		sleep:    time.Sleep,

		appendLatency: opts.AppendLatency,
	}
	if opts.RetryAttempts != 0 {
		s.retries = max(opts.RetryAttempts, 0)
	}
	if opts.RetryBase > 0 {
		s.base = opts.RetryBase
	}
	if opts.RetryCap > 0 {
		s.cap = opts.RetryCap
	}
	if opts.BreakerCooldown > 0 {
		s.cooldown = opts.BreakerCooldown
	}
	if opts.SyncInterval > 0 {
		s.syncEvry = opts.SyncInterval
	}
	if opts.Clock != nil {
		s.now = opts.Clock
	}
	if opts.Sleep != nil {
		s.sleep = opts.Sleep
	}
	if opts.Path == "" {
		return s, nil
	}
	s.rng = rand.New(rand.NewSource(s.now().UnixNano()))
	osf, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", opts.Path, err)
	}
	var f File = osFile{osf}
	if opts.WrapFile != nil {
		f = opts.WrapFile(f)
	}
	// Replay tracking the byte offset past the last complete line: only a
	// newline-less tail (a crash mid-append) is truncated, so the next put
	// never glues onto a fragment. Complete lines always advance the
	// offset — corrupt ones are quarantined in place, not truncated, so a
	// flipped bit in an old record can't erase everything after it.
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				f.Close()
				return nil, fmt.Errorf("store: read %s: %w", opts.Path, err)
			}
			break
		}
		good += int64(len(line))
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(trimmed, &rec); err != nil {
			s.quarantined.Add(1)
			continue
		}
		if rec.Cell == "" || (rec.CRC != 0 && rec.CRC != rec.checksum()) {
			s.quarantined.Add(1)
			continue
		}
		s.cells[rec.Cell] = rec.Result
	}
	if size, err := f.Size(); err == nil && size > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail of %s: %w", opts.Path, err)
		}
	}
	s.f = f
	s.lastSync = s.now()
	return s, nil
}

// GetCell returns the result line stored under one cell digest, counting a
// per-cell hit or miss.
func (s *Store) GetCell(digest string) (json.RawMessage, bool) {
	s.mu.Lock()
	line, ok := s.cells[digest]
	s.mu.Unlock()
	if ok {
		s.cellHits.Add(1)
	} else {
		s.cellMisses.Add(1)
	}
	return line, ok
}

// PeekCell is GetCell without advancing the hit/miss counters: an internal
// re-probe (the service re-checks a cell its bulk probe missed before
// claiming it) must not count the cell a second time.
func (s *Store) PeekCell(digest string) (json.RawMessage, bool) {
	s.mu.Lock()
	line, ok := s.cells[digest]
	s.mu.Unlock()
	return line, ok
}

// LookupCells probes every digest at once and returns the stored lines
// aligned with the input (nil where the store has no entry) plus the hit
// count. One lock acquisition covers the whole grid, and the per-cell
// hit/miss counters advance by the aggregate — this is the sweep runner's
// bulk probe.
func (s *Store) LookupCells(digests []string) ([]json.RawMessage, int) {
	lines := make([]json.RawMessage, len(digests))
	hits := 0
	s.mu.Lock()
	for i, d := range digests {
		if line, ok := s.cells[d]; ok {
			lines[i] = line
			hits++
		}
	}
	s.mu.Unlock()
	s.cellHits.Add(int64(hits))
	s.cellMisses.Add(int64(len(digests) - hits))
	return lines, hits
}

// LookupAll serves a whole request from its ordered cell digests: the
// stored lines aligned with digests when every cell is present, counted as
// len(digests) cell hits. A request missing any cell — never stored, or
// lost to quarantine — is a miss and returns nil, never a short result
// set. A miss counts nothing: the evaluation that follows probes the cells
// with LookupCells, which counts them.
func (s *Store) LookupAll(digests []string) ([]json.RawMessage, bool) {
	lines := make([]json.RawMessage, len(digests))
	s.mu.Lock()
	for i, d := range digests {
		line, ok := s.cells[d]
		if !ok {
			s.mu.Unlock()
			return nil, false
		}
		lines[i] = line
	}
	s.mu.Unlock()
	s.cellHits.Add(int64(len(digests)))
	return lines, true
}

// PutCell stores one result line under a cell digest. Entries are
// immutable: a digest already present is left untouched (the first writer
// wins — identical cells produce identical bytes, so there is nothing to
// overwrite). The line is copied; callers may reuse their buffer. When the
// append fails (after retries) or the write circuit is open, the memory
// map is NOT updated — memory and file stay coherent, the caller sees the
// error, and the result is simply not cached.
func (s *Store) PutCell(digest string, line json.RawMessage) error {
	if digest == "" {
		return fmt.Errorf("store: empty cell digest")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cells[digest]; dup {
		return nil
	}
	owned := append(json.RawMessage(nil), line...)
	s.pend = s.pend[:0]
	if err := s.encodeLocked(record{Cell: digest, Result: owned}); err != nil {
		return err
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.cells[digest] = owned
	return nil
}

// encodeLocked marshals one record (checksummed) into the pending buffer.
// No-op for memory-only stores so the map-only path stays allocation-free.
func (s *Store) encodeLocked(rec record) error {
	if s.f == nil {
		return nil
	}
	rec.CRC = rec.checksum()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	s.pend = append(s.pend, data...)
	s.pend = append(s.pend, '\n')
	return nil
}

var newline = []byte{'\n'}

// commitLocked writes the pending record to the backend, enforcing the
// write circuit, retrying transient failures, repairing a torn tail, and
// applying the sync policy. The memory map is updated by the caller only
// after it returns nil.
func (s *Store) commitLocked() error {
	if s.f == nil || len(s.pend) == 0 {
		return nil
	}
	defer func(start time.Time) { s.appendLatency.ObserveSince(start) }(time.Now())
	if s.degraded {
		if s.now().Sub(s.openedAt) < s.cooldown {
			s.droppedPuts.Add(1)
			return ErrDegraded
		}
		// Cooldown elapsed: this put is the half-open probe. Fall through;
		// success closes the breaker, failure re-arms the cooldown.
	}
	if s.tornTail {
		// A previous put died partway through a write, leaving a fragment
		// with no terminator. Close the fragment off with a newline so it
		// replays as one quarantined line instead of corrupting the record
		// we are about to append. (A spurious empty line — fragment of
		// length zero — is skipped by replay.)
		if err := s.writeRetryLocked(newline); err != nil {
			s.tripLocked()
			return fmt.Errorf("store: append: %w", err)
		}
		s.tornTail = false
	}
	if err := s.writeRetryLocked(s.pend); err != nil {
		s.tripLocked()
		return fmt.Errorf("store: append: %w", err)
	}
	if s.degraded {
		s.degraded = false // probe succeeded: breaker closes
	}
	now := s.now()
	doSync := s.syncPol == SyncAlways ||
		(s.syncPol == SyncInterval && now.Sub(s.lastSync) >= s.syncEvry)
	if doSync {
		if err := s.syncRetryLocked(); err != nil {
			// The record IS written (OS buffer), so the put is served and
			// the map updates — only durability degraded. Trip the breaker
			// so further puts stop until the backend proves healthy again.
			s.syncErrors.Add(1)
			s.tripLocked()
		} else {
			s.lastSync = now
		}
	}
	return nil
}

// tripLocked opens the write circuit.
func (s *Store) tripLocked() {
	s.appendErrors.Add(1)
	s.degraded = true
	s.openedAt = s.now()
}

// writeRetryLocked writes p fully, retrying transient failures with capped
// exponential backoff plus jitter. A partial write that cannot be completed
// marks the tail torn.
func (s *Store) writeRetryLocked(p []byte) error {
	written := 0
	for attempt := 0; ; attempt++ {
		n, err := s.f.Write(p[written:])
		if n > 0 {
			written += n
		}
		if written >= len(p) {
			return nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		if attempt >= s.retries {
			if written > 0 {
				s.tornTail = true
			}
			return err
		}
		s.appendRetry.Add(1)
		s.sleep(s.backoffLocked(attempt))
	}
}

// syncRetryLocked fsyncs with the same retry schedule as writes.
func (s *Store) syncRetryLocked() error {
	for attempt := 0; ; attempt++ {
		err := s.f.Sync()
		if err == nil {
			return nil
		}
		if attempt >= s.retries {
			return err
		}
		s.appendRetry.Add(1)
		s.sleep(s.backoffLocked(attempt))
	}
}

// backoffLocked returns the jittered delay before retry number attempt
// (0-based): base·2^attempt capped at cap, jittered into [d/2, d].
func (s *Store) backoffLocked(attempt int) time.Duration {
	d := s.base << uint(min(attempt, 20))
	if d <= 0 || d > s.cap {
		d = s.cap
	}
	if s.rng != nil && d > 1 {
		d = d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	}
	return d
}

// Degraded reports whether the write circuit is open (read-only mode).
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Counters is a snapshot of the store's effectiveness and health counters.
type Counters struct {
	// Entries is the number of stored cell lines.
	Entries int
	// CellHits and CellMisses count per-cell probes (GetCell, LookupCells,
	// LookupAll hits); a sweep that reuses 180 of 200 cells advances
	// CellHits by 180 and CellMisses by 20.
	CellHits, CellMisses int64
	// Quarantined counts complete lines skipped on replay: corrupt ones and
	// ones that are not cell records.
	Quarantined int64
	// AppendErrors counts puts that exhausted their retries (each trips
	// the breaker); AppendRetries counts individual retry attempts;
	// DroppedPuts counts puts rejected fast while degraded; SyncErrors
	// counts fsync failures (records written, durability degraded).
	AppendErrors  int64
	AppendRetries int64
	DroppedPuts   int64
	SyncErrors    int64
	// Degraded reports the write circuit: true = open, read-only mode.
	Degraded bool
}

// Counters returns a snapshot of the store counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	entries := len(s.cells)
	degraded := s.degraded
	s.mu.Unlock()
	return Counters{
		Entries:       entries,
		CellHits:      s.cellHits.Load(),
		CellMisses:    s.cellMisses.Load(),
		Quarantined:   s.quarantined.Load(),
		AppendErrors:  s.appendErrors.Load(),
		AppendRetries: s.appendRetry.Load(),
		DroppedPuts:   s.droppedPuts.Load(),
		SyncErrors:    s.syncErrors.Load(),
		Degraded:      degraded,
	}
}

// Close syncs and closes the file backend; memory-only stores are a no-op.
// The store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return f.Close()
}
