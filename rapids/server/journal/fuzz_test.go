package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzJournalReplay replays arbitrary bytes as a journal file. Replay
// must never panic and must follow the file's contract, checked against
// a line-by-line reading: every newline-terminated line is blank, an
// entry or corrupt; a final line without its newline is a torn append
// and is dropped, as is a corrupt last line; a corrupt line followed by
// any further line is an error. When Replay succeeds, it must stream
// exactly the entries before the tail it dropped, and an Append after it
// must land on a clean line: the next Replay streams those entries plus
// the new one.
func FuzzJournalReplay(f *testing.F) {
	good := `{"time":"2023-11-14T22:13:20Z","op":"accepted","job_id":"j1","seq":1}`
	for _, s := range []string{
		"",
		good + "\n",
		good + "\n" + good[:30],
		good,
		good + "\r\n" + good + "\r\n",
		"\n \n" + good + "\n\n",
		good + "\nnot json\n" + good + "\n",
		good + "\nnot json\n",
		good + "\nnot json\n\n",
		"null\n1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		want, corrupt := readLines(data)

		var got []Entry
		err = j.Replay(func(e Entry) error { got = append(got, e); return nil })
		if corrupt {
			if err == nil {
				t.Fatalf("a corrupt line followed by more lines replayed without error")
			}
			return
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		requireEntries(t, "replay", got, want)

		e := Entry{Time: time.Unix(1700000000, 0).UTC(), Op: OpAccepted, JobID: "next", Seq: 7}
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		if err := j.Replay(func(e Entry) error { got = append(got, e); return nil }); err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		requireEntries(t, "replay after append", got, append(want, e))
	})
}

// readLines reads data the way the journal's contract defines it: the
// entries of its newline-terminated lines up to the first corrupt one,
// and whether a corrupt line has a further line after it.
func readLines(data []byte) (entries []Entry, corrupt bool) {
	bad := false
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return entries, false // the torn tail, if any
		}
		line := data[:i]
		data = data[i+1:]
		if bad {
			return nil, true
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil {
			bad = true
			continue
		}
		entries = append(entries, e)
	}
}

// requireEntries compares entries by their JSON encoding.
func requireEntries(t *testing.T, step string, got, want []Entry) {
	t.Helper()
	enc := func(es []Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			b, err := json.Marshal(e)
			out[i] = fmt.Sprintf("%s %v", b, err)
		}
		return out
	}
	g, w := enc(got), enc(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d entries, want %d:\n got %q\nwant %q", step, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: entry %d is %s, want %s", step, i, g[i], w[i])
		}
	}
}
