// Package store holds rapidsd's result tiers: a pluggable key→result
// backend that rapids/server reads and writes through one tiered path.
// Each replica's local tier is a bounded Mem (the LRU); the optional
// fleet-shared tier behind it lets N replicas dedupe each other's work
// — a spec optimized on one replica is a store hit on every other,
// because the cache key is a canonical content hash and results are
// deterministic per seed (DESIGN.md §5).
//
// Entries carry a sha256 checksum sealed by NewEntry and re-verified on
// every Get, in every tier. A corrupt entry is dropped and reported as
// ErrCorrupt, never served; the caller falls back to the next tier or
// to a fresh (deterministic) run.
//
// Two implementations ship: Mem, a bounded in-process LRU (the local
// tier, and the fleet store in-process test replicas share), and Dir, a
// directory of one JSON file per key written via temp-file + rename so
// two *processes* on one filesystem can share it without ever observing
// a torn entry. WithFaults wraps any Store with a failure-injection
// seam for the chaos tests (the server's degraded mode: a failing
// shared store must not take down the fleet — see DESIGN.md §5c).
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrCorrupt reports a stored entry that failed its integrity check
// (torn write survived a crash, bit rot, or a buggy writer). The entry
// has been dropped from the store; the caller should treat the lookup
// as a miss and re-run the job.
var ErrCorrupt = errors.New("store: entry failed integrity check")

// Entry is one stored result. Result stays raw JSON so the package
// depends on no server types; Sum is the sha256 of Result, sealed by
// NewEntry and re-verified by Intact (and by every Store on Get).
type Entry struct {
	Key     string          `json:"key"`
	Circuit string          `json:"circuit"`
	Gates   int             `json:"gates"`
	Result  json.RawMessage `json:"result"`
	Sum     string          `json:"sum"`
}

// NewEntry builds an entry with its checksum sealed in.
func NewEntry(key, circuit string, gates int, result json.RawMessage) Entry {
	return Entry{Key: key, Circuit: circuit, Gates: gates, Result: result, Sum: sum(result)}
}

// Intact re-verifies the checksum.
func (e Entry) Intact() bool { return sum(e.Result) == e.Sum }

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// Store is the result-tier seam of rapids/server. Implementations
// must be safe for concurrent use by multiple goroutines — and, for
// Dir, by multiple processes. Get returns ok=false for a missing key;
// a corrupt entry is dropped and reported as ErrCorrupt (ok=false).
// Put must be atomic: a concurrent Get sees the old entry, the new
// entry, or a miss — never a torn one.
type Store interface {
	Get(key string) (Entry, bool, error)
	Put(e Entry) error
	Close() error
}

// Mem is the bounded in-memory implementation: an LRU of at most cap
// entries. It is each replica's local result tier (rapids/server's
// Config.CacheCap sizes it), and several in-process test replicas can
// share one by pointer as their fleet store.
type Mem struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	l   *list.List // front = most recently used; values are Entry

	// OnEvict, when set, runs once per entry the bound evicts, after
	// the Put that evicted it releases the store's lock. Set it before
	// the first Put.
	OnEvict func()
}

// NewMem returns an empty in-memory store holding at most capacity
// entries; capacity must be positive.
func NewMem(capacity int) *Mem {
	if capacity <= 0 {
		panic(fmt.Sprintf("store: NewMem capacity %d, want > 0", capacity))
	}
	return &Mem{cap: capacity, m: make(map[string]*list.Element), l: list.New()}
}

// Get implements Store; a hit becomes the most recently used entry.
func (s *Mem) Get(key string) (Entry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return Entry{}, false, nil
	}
	e := el.Value.(Entry)
	if !e.Intact() {
		s.l.Remove(el)
		delete(s.m, key)
		return Entry{}, false, ErrCorrupt
	}
	s.l.MoveToFront(el)
	return e, true, nil
}

// Put implements Store, evicting least recently used entries past the
// bound.
func (s *Mem) Put(e Entry) error {
	evicted := 0
	s.mu.Lock()
	if el, ok := s.m[e.Key]; ok {
		el.Value = e
		s.l.MoveToFront(el)
	} else {
		s.m[e.Key] = s.l.PushFront(e)
	}
	for s.l.Len() > s.cap {
		oldest := s.l.Back()
		s.l.Remove(oldest)
		delete(s.m, oldest.Value.(Entry).Key)
		evicted++
	}
	s.mu.Unlock()
	for ; evicted > 0 && s.OnEvict != nil; evicted-- {
		s.OnEvict()
	}
	return nil
}

// Close implements Store; a Mem store survives Close so a test can
// hand it to the next server incarnation.
func (s *Mem) Close() error { return nil }

// Len reports the number of stored entries.
func (s *Mem) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.Len()
}

// Dir is the file-backed implementation: one <key>.json per entry in a
// single directory, written atomically (temp file + rename), so several
// rapidsd processes sharing the directory never read a torn entry. The
// last writer of a key wins — harmless, because every writer of a key
// writes the same deterministic result.
type Dir struct {
	dir string

	mu     sync.Mutex
	closed bool
}

// OpenDir opens (creating if needed) the store directory.
func OpenDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Dir{dir: dir}, nil
}

// path maps a key onto its file. Keys are hex content hashes
// (rapids/server's cacheKey), but a hostile or buggy key must not
// escape the directory — anything beyond [0-9a-f] is rejected.
func (s *Dir) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("store: invalid key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get implements Store.
func (s *Dir) Get(key string) (Entry, bool, error) {
	if err := s.check(); err != nil {
		return Entry{}, false, err
	}
	p, err := s.path(key)
	if err != nil {
		return Entry{}, false, err
	}
	b, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return Entry{}, false, nil
	}
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key || !e.Intact() {
		// Unparseable, mislabeled, or checksum-failed: drop it so the
		// next writer of this key starts clean.
		os.Remove(p)
		return Entry{}, false, ErrCorrupt
	}
	return e, true, nil
}

// Put implements Store: marshal to a temp file in the same directory,
// then rename over the final name — atomic on POSIX filesystems.
func (s *Dir) Put(e Entry) error {
	if err := s.check(); err != nil {
		return err
	}
	p, err := s.path(e.Key)
	if err != nil {
		return err
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), p)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", werr)
	}
	return nil
}

// Close implements Store.
func (s *Dir) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *Dir) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return nil
}

// Hooks is the failure-injection seam of the fleet chaos tests, in the
// style of server.FaultHooks: every field is optional, production
// stores are never wrapped, and a non-nil error from a hook is
// returned as the operation's error without touching the underlying
// store. Hooks run on server goroutines and must be race-clean.
type Hooks struct {
	// Get intercepts every lookup; a non-nil error fails it.
	Get func(key string) error
	// Put intercepts every write; a non-nil error fails it.
	Put func(key string) error
}

// WithFaults wraps s so the hooks run before every operation — the
// chaos tests' simulated store outage (the server must degrade to its
// local tier, not fall over; DESIGN.md §5c).
func WithFaults(s Store, h *Hooks) Store { return &faulty{s: s, h: h} }

type faulty struct {
	s Store
	h *Hooks
}

func (f *faulty) Get(key string) (Entry, bool, error) {
	if f.h != nil && f.h.Get != nil {
		if err := f.h.Get(key); err != nil {
			return Entry{}, false, err
		}
	}
	return f.s.Get(key)
}

func (f *faulty) Put(e Entry) error {
	if f.h != nil && f.h.Put != nil {
		if err := f.h.Put(e.Key); err != nil {
			return err
		}
	}
	return f.s.Put(e)
}

func (f *faulty) Close() error { return f.s.Close() }
