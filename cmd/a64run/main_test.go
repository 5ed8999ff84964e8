package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"armbar/internal/a64"
	"armbar/internal/sim"
)

func TestParseFileDirectives(t *testing.T) {
	s, err := parseFile(example)
	if err != nil {
		t.Fatal(err)
	}
	if s.plat.Name != "Kunpeng916" || s.mode != sim.WMM || s.runs != 500 || s.seed != 7 {
		t.Fatalf("directives parsed wrong: %+v", s)
	}
	if len(s.vars) != 2 || s.vars[0].name != "data" || s.vars[1].name != "flag" {
		t.Fatalf("vars = %v", s.vars)
	}
	if len(s.threads) != 2 || s.threads[0].core != 0 || s.threads[1].core != 32 {
		t.Fatalf("threads parsed wrong")
	}
	s, err = parseFile("var a = 0x10 // sixteen\nvar b=2\nthread core=1 ; one\nend // done")
	if err != nil {
		t.Fatal(err)
	}
	if s.vars[0] != (variable{"a", 16}) || s.vars[1] != (variable{"b", 2}) || s.threads[0].core != 1 {
		t.Fatalf("vars %v, threads %v", s.vars, s.threads)
	}
}

// malformedFiles are inputs a runner file must reject, each with the
// error it must name.
var malformedFiles = map[string]string{
	"bogus directive":              "line 1: unknown directive",
	"platform":                     "platform needs a name",
	"runs x\nthread core=0\nend":   "bad runs",
	"seed x\nthread core=0\nend":   "bad seed",
	"seed 7 8\nthread core=0\nend": "bad seed",
	"thread core=x\nend":           "bad core",
	"var x":                        "no threads",
	"mode":                         "mode must be WMM or TSO",
	"mode WWM":                     "mode must be WMM or TSO",
	"seed":                         "bad seed",
	"runs":                         "bad runs",
	"var":                          "var needs a name",
	"var x = y":                    `bad value for var "x"`,
	"var x\nthread core=0\n  nop":  "line 2: thread has no end",
}

// wantParseErrors checks that parseFile rejects each file with an
// error containing the text files maps it to.
func wantParseErrors(t *testing.T, files map[string]string) {
	t.Helper()
	for src, want := range files {
		_, err := parseFile(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseFile(%q) error = %v, want containing %q", src, err, want)
		}
	}
}

func TestParseFileErrors(t *testing.T) { wantParseErrors(t, malformedFiles) }

// unknownFields are files with a directive, thread field or var form
// the format lacks, each with the error it must name.
var unknownFields = map[string]string{
	"typo 1\nthread core=0\nend":  `line 1: unknown directive "typo"`,
	"var x y\nthread core=0\nend": `line 1: var "x y": want var name or var name = value`,
	"thread cpu=3\nend":           `line 1: unknown thread field "cpu=3"`,
	"thread core=1 junk\nend":     `line 1: unknown thread field "junk"`,
}

func TestUnknownFieldRejected(t *testing.T) { wantParseErrors(t, unknownFields) }

// invalidFiles are files rejected before a cycle runs, by parseFile or
// by run's assembly of the thread bodies, each with the error it must
// name.
var invalidFiles = map[string]string{
	"platform nope":                         `line 1: unknown platform "nope"`,
	"mode SC\nthread core=0\nend":           `line 1: mode must be WMM or TSO, not "SC"`,
	"platform Kunpeng916\nvar x":            "a64run: no threads",
	"\nthread core=999\n  nop\nend":         "line 2: core 999 is not on Kunpeng916",
	"platform Kirin960\nthread core=8\nend": "line 2: core 8 is not on Kirin960 (cores 0-7)",
	"thread core=0\n  mov x1, =y\nend":      "thread 0: a64: line 2: unknown symbol =y",
	"thread core=0\n  dmb mfence\nend":      "thread 0: a64: line 2: unknown barrier option",
	"thread core=0\n  jump out\nout:\nend":  "thread 0: a64: line 2: unknown mnemonic",
	"thread core=0\n  nop #0\nend":          "thread 0: a64: line 2: nop takes no operand or one #N, N > 0",
	"var x\nvar x\nthread core=0\nend":      `line 2: duplicate var "x"`,
	// Load-acquire and store-release are instructions, not barriers:
	// alone they lack their operands.
	"thread core=0\n  ldar\nend":  `thread 0: a64: line 2: load needs 2 operands in "ldar"`,
	"thread core=0\n  ldapr\nend": `thread 0: a64: line 2: load needs 2 operands in "ldapr"`,
	"thread core=0\n  stlr\nend":  `thread 0: a64: line 2: store needs 2 operands in "stlr"`,
}

// TestValidationErrors pins that an invalid file yields an error and
// no result.
func TestValidationErrors(t *testing.T) {
	for src, want := range invalidFiles {
		s, err := parseFile(src)
		var res *result
		if err == nil {
			res, err = run(s, 1, 0, nil)
		}
		if res != nil || err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: result %+v, error %v; want no result and an error containing %q", src, res, err, want)
		}
	}
}

// failingRuns are files that parse but that the simulator cannot run,
// each with the error the run must return.
var failingRuns = map[string]string{
	"thread core=0\n  beq out\nout:\n  nop\nend":        "conditional branch before cmp",
	"thread core=0\n  mov x1, #-8\n  ldr x0, [x1]\nend": "address 0xfffffffffffffff8 outside the allocated lines at pc 1 (ldr x0, [x1])",
	// Far past the allocated lines: the directory would grow its
	// tables to this address and exhaust memory.
	"thread core=0\n  mov x1, #0x40000000\n  ldr x0, [x1]\nend":         "address 0x40000000 outside the allocated lines",
	"thread core=0\n  mov x1, #0x40000000\n  ldaddal x2, x3, [x1]\nend": "address 0x40000000 outside the allocated lines at pc 1 (ldaddal",
	"thread core=0\n  mov x1, #0x40000000\n  swpal x2, x3, [x1]\nend":   "address 0x40000000 outside the allocated lines at pc 1 (swpal",
	"thread core=0\n  mov x1, #0x40000000\n  casal x2, x3, [x1]\nend":   "address 0x40000000 outside the allocated lines at pc 1 (casal",
	"thread core=0\n  ldadd x2, x3, [x1]\nend":                          "write ldaddal",
}

// TestRunErrors pins that a program the simulator cannot run fails
// with an error rather than a panic.
func TestRunErrors(t *testing.T) {
	for src, want := range failingRuns {
		s, err := parseFile(src)
		if err != nil {
			t.Fatalf("parseFile(%q): %v", src, err)
		}
		if _, err := run(s, 1, 0, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%q) error = %v, want containing %q", src, err, want)
		}
	}
}

// watchdogFile pads 1e11 cycles on a 3-wide core before its load, past
// the simulator's 5e10-cycle MaxTime watchdog.
const watchdogFile = "var x\nthread core=0\n  nop #300000000000\n  mov x1, =x\n  ldr x0, [x1]\nend"

func TestRunReturnsSimulationAbort(t *testing.T) {
	res, err := run(mustParse(t, watchdogFile), 1, 0, nil)
	if res != nil || err == nil || !strings.Contains(err.Error(), "simulation aborted: sim: watchdog") {
		t.Fatalf("run = %+v, %v; want the watchdog abort as an error", res, err)
	}
}

// fuzzMaxImm bounds the integer literals of a file FuzzRunFile runs.
// A "nop #N" pads N/issue-width cycles and a fuzzed thread executes at
// most 4096 instructions, so literals up to 1<<20 keep every thread
// below 4.3e9 cycles, far from the 5e10-cycle MaxTime watchdog.
const fuzzMaxImm = 1 << 20

// fuzzable reports whether no integer literal in text exceeds
// fuzzMaxImm.
func fuzzable(text string) bool {
	for _, tok := range strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
	}) {
		if v, err := strconv.ParseUint(tok, 0, 64); err == nil && v > fuzzMaxImm {
			return false
		}
	}
	return true
}

// fuzzSeeds are the seed files of FuzzParseFile and FuzzRunFile.
var fuzzSeeds = []string{
	example,
	"mode", "seed", "runs", "var", "mode WWM",
	"thread core=999\n  nop\nend",
	"thread core=0\n  beq out\nout:\n  nop\nend",
	"thread core=0\n  mov x1, #-8\n  ldr x0, [x1]\nend",
	"thread core=0\n  mov x1, #0x40000000\n  ldr x0, [x1]\nend",
	// Malformed files of TestValidationErrors, TestUnknownFieldRejected
	// and TestParseFileErrors.
	"var x\nvar x\nthread core=0\nend",
	"var x y\nthread core=0\nend",
	"thread cpu=3\nend",
	"thread core=1 junk\nend",
	"var x\nthread core=0\n  nop",
	// Message passing with barriers, then with the atomics.
	mpBarriers,
	mpAtomics,
	// Parsed, not run: it pads past the watchdog.
	watchdogFile,
	emptyBodies,
	alternatingCounter,
	"var x = 5\nthread core=0\n  mov x1, =x\n  mov x2, #5\n  mov x3, #9\n  casal x2, x3, [x1]\n  mov x0, x2\nend",
	// The operand barriers are instructions.
	"var x\nthread core=0\n  mov x1, =x\n  ldar x0, [x1]\nend",
	"var x\nthread core=0\n  mov x1, =x\n  ldapr x0, [x1]\nend",
	"var x\nthread core=0\n  mov x1, =x\n  stlr x1, [x1]\nend",
	// Immediates past int64's positive range, and the operand forms
	// the assembler rejects.
	"thread core=0\n  mov x1, #0xffffffffffffffff\n  cmp x1, #0x8000000000000000\n  isb sy\nend",
	"thread core=0\n  add x1, x1, #foo\nend",
	"thread core=0\n  isb junk\nend",
}

// FuzzParseFile feeds arbitrary runner files through the directive
// parser and the A64 assembler, with the spec's vars as symbols.
// Neither may panic.
func FuzzParseFile(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := parseFile(text)
		if err != nil {
			return
		}
		symbols := map[string]uint64{}
		for i, v := range s.vars {
			symbols[v.name] = uint64(i+1) * 64
		}
		for _, th := range s.threads {
			a64.ParseWithSymbols(th.src, symbols)
		}
	})
}

// FuzzRunFile runs each arbitrary runner file that parses once with a
// small instruction budget. A run may fail with an error, but not
// abort the simulation: no instruction blocks, so 4096 per thread
// cannot reach the watchdog unless a nop pads that far (fuzzable), and
// Exec's address check keeps a program from touching memory past the
// allocated lines. A run that succeeds yields one x0 and one
// ThreadStats per thread and one final value per var.
func FuzzRunFile(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := parseFile(text)
		if err != nil || !fuzzable(text) {
			return
		}
		res, err := run(s, s.seed, 4096, nil)
		if err != nil {
			if strings.Contains(err.Error(), "simulation aborted") {
				t.Fatal(err)
			}
			return
		}
		if len(res.x0) != len(s.threads) || len(res.threads) != len(s.threads) || len(res.final) != len(s.vars) {
			t.Fatalf("%d x0s and %d ThreadStats for %d threads, %d final values for %d vars",
				len(res.x0), len(res.threads), len(s.threads), len(res.final), len(s.vars))
		}
	})
}

// mustParse parses a runner file the test needs.
func mustParse(t *testing.T, text string) *spec {
	t.Helper()
	s, err := parseFile(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun runs s once at its own seed.
func mustRun(t *testing.T, s *spec) *result {
	t.Helper()
	res, err := run(s, s.seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mpBarriers is Table 1's message passing fixed with DMB st / DMB ld;
// the consumer leaves the data it read in x0.
const mpBarriers = `seed 3
var data
var flag

thread core=0
  mov x1, =data
  mov x2, #23
  str x2, [x1]
  dmb ishst
  mov x3, =flag
  mov x4, #1
  str x4, [x3]
end

thread core=32
  mov x1, =flag
wait:
  ldr x2, [x1]
  cbz x2, wait
  dmb ishld
  mov x3, =data
  ldr x0, [x3]
end
`

func TestParseAndRunMessagePassing(t *testing.T) {
	s := mustParse(t, mpBarriers)
	res := mustRun(t, s)
	if res.final[0] != 23 || res.final[1] != 1 || res.x0[1] != 23 {
		t.Fatalf("final data, flag = %v, consumer read %d; want 23, 1 and 23", res.final, res.x0[1])
	}
	if res.cycles <= 0 || res.seconds <= 0 {
		t.Fatalf("no time elapsed: %v cycles, %v s", res.cycles, res.seconds)
	}
	if len(res.threads) != 2 || res.threads[0].Stores == 0 || res.threads[1].Loads == 0 {
		t.Fatalf("stats not collected: %+v", res.threads)
	}
}

// emptyBodies has threads that issue no machine op: an empty body and
// one that only branches over nothing.
const emptyBodies = `var x
thread core=0
end
thread core=1
  b skip
skip:
end
thread core=2
  mov x1, =x
  mov x2, #4
  mov x3, #2
again:
  str x2, [x1]
  sub x3, x3, #1
  cbnz x3, again
end
`

func TestEmptyThreadBodyRuns(t *testing.T) {
	res := mustRun(t, mustParse(t, emptyBodies))
	if res.final[0] != 4 || len(res.threads) != 3 {
		t.Fatalf("final %v, %d thread stats", res.final, len(res.threads))
	}
}

// alternatingCounter passes a turn between two threads 50 times each;
// whoever holds the turn bumps ctr with ldaddal and hands the turn on
// with swpal. var turn = 1 gives thread 0 the first turn.
const alternatingCounter = `platform Kirin960
seed 5
var ctr
var turn = 1

thread core=0
  mov x1, =turn
  mov x2, =ctr
  mov x3, #1
  mov x4, #2
  mov x5, #50
mine:
  ldr x6, [x1]
  cmp x6, #1
  bne mine
  ldaddal x3, xzr, [x2]
  swpal x4, xzr, [x1]
  sub x5, x5, #1
  cbnz x5, mine
end

thread core=1
  mov x1, =turn
  mov x2, =ctr
  mov x3, #1
  mov x4, #1
  mov x5, #50
mine:
  ldr x6, [x1]
  cmp x6, #2
  bne mine
  ldaddal x3, xzr, [x2]
  swpal x4, xzr, [x1]
  sub x5, x5, #1
  cbnz x5, mine
end
`

func TestAtomicsAndSpins(t *testing.T) {
	res := mustRun(t, mustParse(t, alternatingCounter))
	if res.final[0] != 100 || res.final[1] != 1 {
		t.Fatalf("alternating counter = %d, turn = %d; want 100 and 1", res.final[0], res.final[1])
	}
}

func TestTSOMode(t *testing.T) {
	s := mustParse(t, `mode TSO
seed 7
var x
thread core=0
  mov x1, =x
  mov x2, #9
  mov x3, #10
again:
  str x2, [x1]
  sub x3, x3, #1
  cbnz x3, again
end
`)
	if s.mode != sim.TSO {
		t.Fatalf("mode = %v", s.mode)
	}
	if res := mustRun(t, s); res.final[0] != 9 {
		t.Fatalf("x = %d", res.final[0])
	}
}

func TestRunExampleUnderBothModes(t *testing.T) {
	s := mustParse(t, example)

	// WMM: across a bunch of seeds the anomaly (consumer x0 == 0) must
	// appear at least once, and the intended 23 as well.
	sawAnomaly, sawIntended := false, false
	for r := 0; r < 120; r++ {
		res, err := run(s, int64(100+r), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch res.x0[1] {
		case 0:
			sawAnomaly = true
		case 23:
			sawIntended = true
		default:
			t.Fatalf("impossible consumer value %d", res.x0[1])
		}
	}
	if !sawAnomaly || !sawIntended {
		t.Fatalf("WMM outcomes incomplete: anomaly=%v intended=%v", sawAnomaly, sawIntended)
	}

	// TSO: never the anomaly.
	s.mode = sim.TSO
	for r := 0; r < 60; r++ {
		res, err := run(s, int64(100+r), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.x0[1] != 23 {
			t.Fatalf("TSO produced the anomaly: %v", res.x0)
		}
	}
}

// mpAtomics is the example's message passing with the flag published
// by swpal and polled by ldaddal xzr (an atomic read): no barrier
// instruction, only the atomics' acquire-release order.
const mpAtomics = `var data
var flag

thread core=0
  mov x1, =data
  mov x2, #23
  str x2, [x1]
  mov x3, =flag
  mov x4, #1
  swpal x4, x5, [x3]
end

thread core=32
  mov x3, =data
  ldr x5, [x3]   // warm the data line (hold a cacheable copy)
  mov x1, =flag
wait:
  ldaddal xzr, x2, [x1]
  cbz x2, wait
  ldr x0, [x3]
end
`

// TestAtomicsOrderMessagePassing pins the atomics as acquire-release:
// over the seeds at which TestRunExampleUnderBothModes sees the plain
// store and poll read stale data, the atomic publish and poll never do.
func TestAtomicsOrderMessagePassing(t *testing.T) {
	s := mustParse(t, mpAtomics)
	for r := 0; r < 120; r++ {
		res, err := run(s, int64(100+r), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.x0[1] != 23 {
			t.Fatalf("seed %d: consumer read %d after the atomic flag, want 23", 100+r, res.x0[1])
		}
	}
}

// TestSummaryAndTrace runs the command on a file: it prints the first
// run's summary before the histogram and writes that run's trace.
func TestSummaryAndTrace(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "mp.s")
	traceFile := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(file, []byte("runs 2\n"+mpBarriers), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := cli([]string{"-trace", traceFile, file}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"platform Kunpeng916 (WMM), 2 threads\nrun 0 (seed 3): ",
		"\nthr       loads     stores   misses    stale barrier-stall\nt0  ",
		"\nt1  ",
		"\nfinal values:\n  data         = 23\n  flag         = 1\ntrace written to " + traceFile,
		"\nKunpeng916, WMM, 2 runs:\n  x0[0]=0 x0[1]=23 ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace has %d events, error %v", len(tr.TraceEvents), err)
	}
}
