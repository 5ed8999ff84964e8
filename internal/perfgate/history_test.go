package perfgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeHistory(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	histLine1 = `{"date":"2026-06-01","go":"go1.24","cpu":"x","gomaxprocs":8,"cold_wall_seconds":90.0,"benchmarks":[{"name":"BenchmarkStoreCommit","iters":100,"ns_per_op":50.0,"bytes_per_op":0,"allocs_per_op":0}]}`
	histLine2 = `{"date":"2026-07-01","go":"go1.24","cpu":"x","gomaxprocs":8,"cold_wall_seconds":60.0,"benchmarks":[{"name":"BenchmarkStoreCommit","iters":100,"ns_per_op":40.0,"bytes_per_op":0,"allocs_per_op":0},{"name":"BenchmarkRendezvous","iters":100,"ns_per_op":900.0,"bytes_per_op":0,"allocs_per_op":0}]}`
	histLine3 = `{"date":"2026-08-01","go":"go1.24","cpu":"x","gomaxprocs":8,"benchmarks":[{"name":"BenchmarkStoreCommit","iters":100,"ns_per_op":30.0,"bytes_per_op":0,"allocs_per_op":0},{"name":"BenchmarkRendezvous","iters":100,"ns_per_op":850.0,"bytes_per_op":0,"allocs_per_op":0}]}`
)

func TestLoadHistoryOrderAndTail(t *testing.T) {
	path := writeHistory(t, histLine1, "", histLine2, histLine3)

	all, err := LoadHistory(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].Date != "2026-06-01" || all[2].Date != "2026-08-01" {
		t.Fatalf("full history wrong: %+v", all)
	}

	tail, err := LoadHistory(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Date != "2026-07-01" {
		t.Fatalf("tail -n 2 wrong: %+v", tail)
	}
}

func TestLoadHistoryRejectsBadLines(t *testing.T) {
	if _, err := LoadHistory(writeHistory(t, histLine1, "{not json"), 0); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := LoadHistory(writeHistory(t, `{"date":"2026-06-01","benchmarks":[]}`), 0); err == nil {
		t.Error("empty-benchmark line accepted")
	}
	if _, err := LoadHistory(writeHistory(t, " "), 0); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := LoadHistory(filepath.Join(t.TempDir(), "absent.jsonl"), 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestHistoryTable(t *testing.T) {
	path := writeHistory(t, histLine1, histLine2, histLine3)
	snaps, err := LoadHistory(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := HistoryTable(snaps)

	for _, want := range []string{
		"2026-06-01", "2026-07-01", "2026-08-01",
		"BenchmarkStoreCommit", "BenchmarkRendezvous",
		"-40.0%", // StoreCommit 50 -> 30
		"-5.6%",  // Rendezvous 900 -> 850 (first appears mid-history)
		"-33.3%", // cold wall 90 -> 60; absent in line 3 renders "-"
		"cold `-quick all`",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("history table missing %q:\n%s", want, out)
		}
	}
	// The benchmark absent from the first snapshot renders a placeholder
	// in its column, not a zero.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "BenchmarkRendezvous") && !strings.Contains(line, "-") {
			t.Errorf("missing-entry placeholder absent: %q", line)
		}
	}
}

func TestHistoryTableSingleEntryHasNoTrend(t *testing.T) {
	snaps, err := LoadHistory(writeHistory(t, histLine1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := HistoryTable(snaps); strings.Contains(out, "%") {
		t.Errorf("single entry should have no trend column:\n%s", out)
	}
}
