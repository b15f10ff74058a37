package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
)

// gate is the correctness gate. Every operation's simulated outputs are
// hashed and compared with the digests committed for the benchmark's
// inputs; an operation fails if any of its outputs differs, has no
// committed digest, or returned an error. In record mode the digests
// are collected instead, to be written back to the digest file.
type gate struct {
	mu        sync.Mutex
	want      map[string]string
	recorded  map[string]string // non-nil in record mode
	attempted int
	failed    int
	problems  []string
}

func loadGate(path string, record bool) (*gate, error) {
	g := &gate{want: map[string]string{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g.want); err != nil {
			return nil, fmt.Errorf("digest file %s: %w", path, err)
		}
	case record && os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("digest file: %w", err)
	}
	if record {
		g.recorded = map[string]string{}
	}
	return g, nil
}

// save merges the recorded digests into the digest file.
func (g *gate) save(path string) error {
	for k, v := range g.recorded {
		g.want[k] = v
	}
	data, err := json.MarshalIndent(g.want, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// digest hashes length-prefixed parts, so part boundaries are part of the
// digest. 128 bits are plenty to detect a changed output.
func digest(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// check compares one output's digest with the committed one.
func (g *gate) check(key, got string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.recorded != nil {
		if prev, ok := g.recorded[key]; ok && prev != got {
			g.problems = append(g.problems, fmt.Sprintf("%s: output changed between two runs of the same input", key))
			return false
		}
		g.recorded[key] = got
		return true
	}
	want, ok := g.want[key]
	if !ok {
		g.problems = append(g.problems, fmt.Sprintf("%s: no committed digest", key))
		return false
	}
	if want != got {
		g.problems = append(g.problems, fmt.Sprintf("%s: digest %s, committed %s", key, got, want))
		return false
	}
	return true
}

// fail records a problem that is not a digest comparison.
func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// done counts one attempted operation and whether it was correct.
func (g *gate) done(ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
	}
}

// okRatio is the share of attempted operations that succeeded with
// correct outputs: 1 - error ratio.
func (g *gate) okRatio() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.attempted == 0 {
		return 0
	}
	return float64(g.attempted-g.failed) / float64(g.attempted)
}

// cpuModel reads the CPU model name (Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the measured source tree by the VCS revision go
// build stamped into the binary, marked "+modified" for a dirty tree. A
// build outside a git checkout carries no revision.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
