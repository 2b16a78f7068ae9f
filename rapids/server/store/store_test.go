package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func entry(key string, payload string) Entry {
	return NewEntry(key, "c432", 160, json.RawMessage(payload))
}

// roundTrip pins the Store contract shared by every implementation.
func roundTrip(t *testing.T, s Store) {
	t.Helper()

	// Miss on an unknown key, no error.
	if _, ok, err := s.Get("aaaa"); ok || err != nil {
		t.Fatalf("empty store get: ok=%v err=%v", ok, err)
	}

	// Put then get returns the identical entry.
	e := entry("aaaa", `{"FinalDelayNS":12.5}`)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("aaaa")
	if !ok || err != nil {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got.Key != e.Key || got.Circuit != e.Circuit || got.Gates != e.Gates ||
		string(got.Result) != string(e.Result) || got.Sum != e.Sum {
		t.Fatalf("entry changed in the store: put %+v, got %+v", e, got)
	}
	if !got.Intact() {
		t.Fatal("returned entry fails its own checksum")
	}

	// Overwrite wins (idempotent for deterministic results, but the
	// contract is last-writer).
	e2 := entry("aaaa", `{"FinalDelayNS":12.5,"Swaps":3}`)
	if err := s.Put(e2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get("aaaa"); string(got.Result) != string(e2.Result) {
		t.Fatalf("overwrite not visible: %s", got.Result)
	}

	// Distinct keys are independent.
	if err := s.Put(entry("bbbb", `{"FinalDelayNS":1}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s.Get("aaaa"); !ok || string(got.Result) != string(e2.Result) {
		t.Fatal("second key disturbed the first")
	}
}

func TestMemRoundTrip(t *testing.T) { roundTrip(t, NewMem(64)) }

func TestDirRoundTrip(t *testing.T) {
	s, err := OpenDir(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

// TestDirSharedBetweenHandles: two Dir handles over one directory see
// each other's writes — the property two rapidsd processes lean on.
func TestDirSharedBetweenHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(entry("cafe", `{"FinalDelayNS":7}`)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("cafe")
	if !ok || err != nil {
		t.Fatalf("second handle misses the first handle's write: ok=%v err=%v", ok, err)
	}
	if string(got.Result) != `{"FinalDelayNS":7}` {
		t.Fatalf("wrong payload: %s", got.Result)
	}
}

// TestCorruptEntryDropped: a checksum-failed entry is reported as
// ErrCorrupt and removed, so the next lookup is a clean miss.
func TestCorruptEntryDropped(t *testing.T) {
	mem := NewMem(64)
	bad := entry("dead", `{"FinalDelayNS":1}`)
	bad.Result = json.RawMessage(`{"FinalDelayNS":2}`) // sum no longer matches
	if err := mem.Put(bad); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mem.Get("dead"); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt get: ok=%v err=%v, want ErrCorrupt miss", ok, err)
	}
	if _, ok, err := mem.Get("dead"); ok || err != nil {
		t.Fatalf("second get after drop: ok=%v err=%v, want clean miss", ok, err)
	}
}

// TestDirCorruptFileDropped: torn or garbage files (the on-disk
// corruption modes) are dropped, reported once, then clean misses.
func TestDirCorruptFileDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"beef": `{"key":"beef","result":{"a":1}`, // torn JSON
		"f00d": `{"key":"f00d","result":{"FinalDelayNS":1},"sum":"not-the-sum"}`,
		"0abc": `{"key":"WRONG","result":null,"sum":""}`, // mislabeled
	}
	for key, raw := range cases {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(key); ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ok=%v err=%v, want ErrCorrupt", key, ok, err)
		}
		if _, ok, err := s.Get(key); ok || err != nil {
			t.Fatalf("%s: second get ok=%v err=%v, want clean miss", key, ok, err)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".json")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt file not removed", key)
		}
	}
}

// TestDirRejectsHostileKeys: keys must not escape the store directory.
func TestDirRejectsHostileKeys(t *testing.T) {
	s, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../evil", "a/b", `a\b`, "a.b"} {
		if err := s.Put(entry(key, `{}`)); err == nil {
			t.Errorf("Put(%q) accepted a hostile key", key)
		}
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a hostile key", key)
		}
	}
}

// TestDirClosed: operations after Close fail loudly.
func TestDirClosed(t *testing.T) {
	s, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(entry("aaaa", `{}`)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, _, err := s.Get("aaaa"); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}

// TestWithFaults: the hook seam fails operations without touching the
// wrapped store, and a nil-hooked wrapper is transparent.
func TestWithFaults(t *testing.T) {
	mem := NewMem(64)
	boom := errors.New("disk on fire")
	var gets, puts int
	f := WithFaults(mem, &Hooks{
		Get: func(key string) error { gets++; return boom },
		Put: func(key string) error { puts++; return boom },
	})
	if err := f.Put(entry("aaaa", `{}`)); !errors.Is(err, boom) {
		t.Fatalf("Put error: %v", err)
	}
	if _, _, err := f.Get("aaaa"); !errors.Is(err, boom) {
		t.Fatalf("Get error: %v", err)
	}
	if gets != 1 || puts != 1 {
		t.Fatalf("hook calls: %d gets, %d puts", gets, puts)
	}
	if mem.Len() != 0 {
		t.Fatal("failed Put reached the underlying store")
	}
	clean := WithFaults(mem, nil)
	if err := clean.Put(entry("aaaa", `{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := clean.Get("aaaa"); !ok || err != nil {
		t.Fatalf("transparent wrapper: ok=%v err=%v", ok, err)
	}
}

// TestConcurrentAccess hammers a shared store from many goroutines —
// meaningful under -race, and for Dir it also exercises concurrent
// rename-over-rename on the same keys.
func TestConcurrentAccess(t *testing.T) {
	stores := map[string]Store{"mem": NewMem(64)}
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["dir"] = d
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("%04x", i%10)
						payload := fmt.Sprintf(`{"FinalDelayNS":%d}`, i%10)
						if err := s.Put(entry(key, payload)); err != nil {
							t.Error(err)
							return
						}
						if e, ok, err := s.Get(key); err != nil {
							t.Error(err)
							return
						} else if ok && !e.Intact() {
							t.Error("torn entry observed")
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// FuzzStoreEntry writes arbitrary bytes as a Dir file under a valid key:
// Get must never panic, serves an entry only when it is labeled with
// that key and its checksum verifies, and otherwise reports ErrCorrupt
// with the file removed.
func FuzzStoreEntry(f *testing.F) {
	good, err := json.Marshal(entry("c0ffee", `{"FinalDelayNS":12.5}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"key":"c0ffee","result":{"FinalDelayNS":1},"sum":"not-the-sum"}`))
	f.Add([]byte(`{"key":"WRONG","result":null,"sum":""}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		s, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "c0ffee.json")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok, err := s.Get("c0ffee")
		if ok {
			if err != nil || e.Key != "c0ffee" || !e.Intact() {
				t.Fatalf("served ok=%v err=%v entry %+v", ok, err, e)
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unserved file: err=%v, want ErrCorrupt", err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt file not removed: %v", err)
		}
	})
}
