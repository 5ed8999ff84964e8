package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"armbar/internal/sim"
)

// workload is one named input set of the benchmark. prepare builds the
// seed's inputs — the set-up that setup_s times — and returns the plan
// whose pass is the workload's fixed unit of work.
type workload struct {
	name    string
	prepare func(env *env) (*plan, error)
}

// env is what a workload's set-up may depend on.
type env struct {
	seed    int64
	workdir string // scratch directory for files the workload writes
}

// plan is a prepared workload. pass runs the fixed work once through
// the passRun, which owns the pool, the checks and the accounting.
type plan struct {
	pass func(r *passRun)
}

// cell is one unit of work submitted to the pool. key names the digest
// the cell's output is checked against (the name when empty); cells
// sharing a key, like replay's cold and warm regenerations of one
// experiment, must agree.
type cell struct {
	name  string
	group string // pprof label: the experiment or family the cell belongs to
	key   string
	run   func(cc *cellCtx) outcome
}

// outcome is what a cell reports back. A non-empty err fails the cell.
type outcome struct {
	digest     string
	err        string
	stats      *sim.Stats // the machine's counters, for cells that ran one
	threads    int
	states     int
	placements int
	hits       int
	misses     int
}

// workloads are the benchmark's inputs; METRICS.md says why each one
// exists and which layer it stresses.
var workloads = []workload{
	{"lockds", prepareLockds},
	{"programs", preparePrograms},
	{"fence", prepareFence},
	{"replay", prepareReplay},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digestOf hashes the printed form of every part. %v prints floats in
// their shortest exact form and structs field by field, so equal
// digests mean equal values.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// simOutcome is the outcome of one simulated machine: its digest covers
// the simulated cycles, the validity flag and every sim.Stats counter.
func simOutcome(cycles float64, valid bool, st sim.Stats, threads int) outcome {
	o := outcome{digest: digestOf(cycles, valid, st), stats: &st, threads: threads}
	if !valid {
		o.err = "Valid=false"
	}
	return o
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
