package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				done <- b.String()
				return
			}
		}
	}()
	f()
	w.Close()
	os.Stdout = orig
	return <-done
}

func writeCapture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBench pins the regression gate: within-budget drift passes,
// over-budget regressions fail, benchmarks missing from the new capture warn
// by name without failing, and a capture missing every baseline benchmark
// fails.
func TestCompareBench(t *testing.T) {
	old := writeCapture(t, "old.json", `[
	  {"name": "BenchmarkA", "iterations": 1, "ns_per_op": 1000},
	  {"name": "BenchmarkB", "iterations": 1, "ns_per_op": 2000}
	]`)

	within := writeCapture(t, "within.json", `[
	  {"name": "BenchmarkA", "iterations": 1, "ns_per_op": 1100},
	  {"name": "BenchmarkB", "iterations": 1, "ns_per_op": 1500}
	]`)
	if err := compareBench(old, within, 25); err != nil {
		t.Errorf("10%% drift under a 25%% budget: %v", err)
	}

	regressed := writeCapture(t, "regressed.json", `[
	  {"name": "BenchmarkA", "iterations": 1, "ns_per_op": 1400},
	  {"name": "BenchmarkB", "iterations": 1, "ns_per_op": 2000}
	]`)
	if err := compareBench(old, regressed, 25); err == nil {
		t.Error("40% regression under a 25% budget: want error")
	}
	// The same capture passes once the budget allows it.
	if err := compareBench(old, regressed, 50); err != nil {
		t.Errorf("40%% regression under a 50%% budget: %v", err)
	}

	// A benchmark absent from the new capture is a named warning, not a
	// failure: renames and retirements must not wedge the gate.
	missing := writeCapture(t, "missing.json", `[
	  {"name": "BenchmarkA", "iterations": 1, "ns_per_op": 1000}
	]`)
	out := captureStdout(t, func() {
		if err := compareBench(old, missing, 25); err != nil {
			t.Errorf("benchmark dropped from the new capture: want warning, got error %v", err)
		}
	})
	if !strings.Contains(out, "BenchmarkB") || !strings.Contains(out, "WARNING: missing") {
		t.Errorf("missing benchmark not warned about by name:\n%s", out)
	}
	// But a missing benchmark must not mask a real regression elsewhere.
	missingPlusRegressed := writeCapture(t, "missing_regressed.json", `[
	  {"name": "BenchmarkA", "iterations": 1, "ns_per_op": 1400}
	]`)
	if err := compareBench(old, missingPlusRegressed, 25); err == nil {
		t.Error("regression alongside a missing benchmark: want error")
	}

	// A capture in which every baseline benchmark is missing compared
	// nothing, e.g. names carrying go test's -N GOMAXPROCS suffix: it fails.
	suffixed := writeCapture(t, "suffixed.json", `[
	  {"name": "BenchmarkA-2", "iterations": 1, "ns_per_op": 1000},
	  {"name": "BenchmarkB-2", "iterations": 1, "ns_per_op": 2000}
	]`)
	if err := compareBench(old, suffixed, 25); err == nil {
		t.Error("no baseline benchmark in the new capture: want error")
	}

	empty := writeCapture(t, "empty.json", `[]`)
	if err := compareBench(old, empty, 25); err == nil {
		t.Error("empty new capture: want error")
	}
	if err := compareBench(old, filepath.Join(t.TempDir(), "absent.json"), 25); err == nil {
		t.Error("unreadable new capture: want error")
	}
}
