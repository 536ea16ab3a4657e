package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	dragonfly "repro"
	"repro/internal/engine"
	"repro/internal/exp"
)

// goldenSeed is the only seed with committed digests; every other seed is
// checked by self-consistency (repetitions, passes and doors must agree).
const goldenSeed = 1

// benchDir is the benchmark's own directory, from the repository root
// (where the wrapper runs the binary) or from inside it (go test, go run).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return "benchmark"
	}
	return "."
}

// outDir is where traces and reports go; .gitignore names it.
func outDir() (string, error) {
	dir := filepath.Join(benchDir(), "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func goldenPath(workload string) string {
	return filepath.Join(benchDir(), "golden", fmt.Sprintf("%s.seed%d.txt", workload, goldenSeed))
}

// recordDigest is the SHA-256 of the point's canonical JSONL line — the
// bytes exp.Options.CanonicalJSONL would emit for it.
func recordDigest(index int, p exp.Point, res dragonfly.Result) (string, error) {
	var buf bytes.Buffer
	if err := exp.WriteCanonicalRecord(&buf, &exp.Outcome{Index: index, Point: p, Result: res}); err != nil {
		return "", err
	}
	return lineDigest(buf.Bytes()), nil
}

func lineDigest(line []byte) string {
	sum := sha256.Sum256(line)
	return hex.EncodeToString(sum[:])
}

// jsonlDigests digests a canonical JSONL stream line by line.
func jsonlDigests(jsonl []byte) []string {
	lines := bytes.SplitAfter(jsonl, []byte("\n"))
	out := make([]string, 0, len(lines))
	for _, l := range lines {
		if len(l) > 0 {
			out = append(out, lineDigest(l))
		}
	}
	return out
}

// loadGolden reads the committed digests of a workload. ok is false when
// there are none for this engine version (a ResultsVersion bump
// invalidates them until -update-golden is run).
func loadGolden(workload string) (digests []string, ok bool, err error) {
	buf, err := os.ReadFile(goldenPath(workload))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) == 0 || lines[0] != goldenHeader() {
		return nil, false, nil
	}
	return lines[1:], true, nil
}

func goldenHeader() string {
	return fmt.Sprintf("engine.ResultsVersion %d", engine.ResultsVersion)
}

func writeGolden(workload string, digests []string) error {
	body := goldenHeader() + "\n" + strings.Join(digests, "\n") + "\n"
	return os.WriteFile(goldenPath(workload), []byte(body), 0o644)
}

// mismatches counts the points of got that differ from want; a length
// difference counts every missing or extra point.
func mismatches(got, want []string) int {
	n := max(len(got), len(want)) - min(len(got), len(want))
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
