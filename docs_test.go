package repro_test

// The docs gate (`make docs-check`): documentation is a tested
// surface, not prose. Two checks over README.md, DESIGN.md, and
// EXPERIMENTS.md:
//
//   - TestDocLinksResolve: every relative markdown link target exists
//     in the repository (external URLs are only checked for shape —
//     CI must not depend on the network).
//   - TestDocFlagsExist: every `-flag` spelled in a command line of a
//     fenced code block (or inline code span) is actually defined by
//     one of the cmd/ front ends, the Makefile, or the go tool — the
//     check that would have caught the pre-PR-4 stale flag text.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocLinksResolve(t *testing.T) {
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
				continue // shape-checked by the regex; no network in CI
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor; heading slugs are renderer-specific
			}
			path := strings.SplitN(target, "#", 2)[0]
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, target)
			}
		}
	}
}

// flagDefRe matches flag definitions in cmd/*/main.go:
// flag.String("name", ...), flag.Int("name", ...), etc.
var flagDefRe = regexp.MustCompile(`flag\.[A-Za-z0-9]+\(\s*"([^"]+)"`)

// definedFlags collects every flag name declared by the cmd/ tools.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	flags := map[string]bool{}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd mains found: %v", err)
	}
	for _, main := range mains {
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
	}
	return flags
}

// toolFlags are non-repo flags that legitimately appear in documented
// command lines: the go tool chain and the POSIX tools the docs quote.
var toolFlags = map[string]bool{
	// go build/test/vet
	"run": true, "bench": true, "benchtime": true, "benchmem": true,
	"count": true, "fuzz": true,
	"fuzztime": true, "race": true, "short": true, "coverprofile": true,
	"func": true, "o": true, "all": true,
	// go tool pprof
	"top": true,
	// curl as quoted in the service docs
	"s": true, "sN": true, "N": true, "X": true, "d": true, "H": true,
}

// docFlagRe matches "-flag" tokens in a command line: preceded by
// whitespace, a plausible flag name after the dash.
var docFlagRe = regexp.MustCompile(`(^|\s)-([a-zA-Z][a-zA-Z0-9-]*)`)

// commandish reports whether a code line is a command invocation whose
// flags we should check.
func commandish(line string) bool {
	trimmed := strings.TrimSpace(line)
	for _, prefix := range []string{"go run", "go test", "go build", "go vet", "go tool", "rapids", "table1", "rapidsd", "curl", "make"} {
		if strings.HasPrefix(trimmed, prefix) {
			return true
		}
	}
	return false
}

func TestDocFlagsExist(t *testing.T) {
	flags := definedFlags(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for ln, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			var candidates []string
			if inFence && commandish(line) {
				candidates = append(candidates, line)
			}
			if !inFence {
				// Inline code spans like `rapids -bench alu2 -v`.
				for _, span := range regexp.MustCompile("`([^`]*)`").FindAllStringSubmatch(line, -1) {
					if commandish(span[1]) || strings.HasPrefix(span[1], "-") {
						candidates = append(candidates, span[1])
					}
				}
			}
			for _, c := range candidates {
				for _, m := range docFlagRe.FindAllStringSubmatch(c, -1) {
					name := m[2]
					if !flags[name] && !toolFlags[name] {
						t.Errorf("%s:%d documents flag -%s, which no cmd/ tool defines (line: %q)",
							doc, ln+1, name, strings.TrimSpace(c))
					}
				}
			}
		}
	}
}
