package main

import (
	"strings"
	"testing"

	"armbar/internal/a64"
	"armbar/internal/platform"
)

func TestParseFileDirectives(t *testing.T) {
	s, err := parseFile(example)
	if err != nil {
		t.Fatal(err)
	}
	if s.platform != "Kunpeng916" || s.mode != "WMM" || s.runs != 500 || s.seed != 7 {
		t.Fatalf("directives parsed wrong: %+v", s)
	}
	if len(s.vars) != 2 || s.vars[0] != "data" || s.vars[1] != "flag" {
		t.Fatalf("vars = %v", s.vars)
	}
	if len(s.threads) != 2 || s.threads[0].core != 0 || s.threads[1].core != 32 {
		t.Fatalf("threads parsed wrong")
	}
}

func TestParseFileErrors(t *testing.T) {
	cases := map[string]string{
		"bogus directive":            "unknown directive",
		"platform":                   "platform needs a name",
		"runs x\nthread core=0\nend": "bad runs",
		"seed x\nthread core=0\nend": "bad seed",
		"thread core=x\nend":         "bad core",
		"var x":                      "no threads",
		"mode":                       "mode must be WMM or TSO",
		"mode WWM":                   "mode must be WMM or TSO",
		"seed":                       "bad seed",
		"runs":                       "bad runs",
		"var":                        "var needs a name",
	}
	for src, want := range cases {
		_, err := parseFile(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseFile(%q) error = %v, want containing %q", src, err, want)
		}
	}
}

// TestRunErrors pins that a program the simulator cannot run fails
// with an error rather than a panic.
func TestRunErrors(t *testing.T) {
	cases := map[string]string{
		"thread core=999\n  nop\nend":                       "core 999 is not on Kunpeng916",
		"thread core=0\n  beq out\nout:\n  nop\nend":        "conditional branch before cmp",
		"thread core=0\n  mov x1, #-8\n  ldr x0, [x1]\nend": "simulation aborted",
	}
	p := platform.Kunpeng916()
	for src, want := range cases {
		s, err := parseFile(src)
		if err != nil {
			t.Fatalf("parseFile(%q): %v", src, err)
		}
		if _, err := run(s, p, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%q) error = %v, want containing %q", src, err, want)
		}
	}
}

// FuzzParseFile feeds arbitrary runner files through the directive
// parser and the A64 assembler, with the spec's vars as symbols:
// neither may panic. It stops short of executing: a program can touch
// addresses far past the allocated lines, and the coherence directory
// grows its tables up to the highest touched address.
func FuzzParseFile(f *testing.F) {
	f.Add(example)
	for _, src := range []string{
		"mode", "seed", "runs", "var", "mode WWM",
		"thread core=999\n  nop\nend",
		"thread core=0\n  beq out\nout:\n  nop\nend",
		"thread core=0\n  mov x1, #-8\n  ldr x0, [x1]\nend",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := parseFile(text)
		if err != nil {
			return
		}
		symbols := map[string]uint64{}
		for i, v := range s.vars {
			symbols[v] = uint64(i+1) * 64
		}
		for _, th := range s.threads {
			a64.ParseWithSymbols(th.src, symbols)
		}
	})
}

func TestRunExampleUnderBothModes(t *testing.T) {
	s, err := parseFile(example)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.ByName(s.platform)

	// WMM: across a bunch of seeds the anomaly (consumer x0 == 0) must
	// appear at least once, and the intended 23 as well.
	sawAnomaly, sawIntended := false, false
	for r := 0; r < 120; r++ {
		res, err := run(s, p, int64(100+r))
		if err != nil {
			t.Fatal(err)
		}
		switch res[1] {
		case 0:
			sawAnomaly = true
		case 23:
			sawIntended = true
		default:
			t.Fatalf("impossible consumer value %d", res[1])
		}
	}
	if !sawAnomaly || !sawIntended {
		t.Fatalf("WMM outcomes incomplete: anomaly=%v intended=%v", sawAnomaly, sawIntended)
	}

	// TSO: never the anomaly.
	s.mode = "TSO"
	for r := 0; r < 60; r++ {
		res, err := run(s, p, int64(100+r))
		if err != nil {
			t.Fatal(err)
		}
		if res[1] != 23 {
			t.Fatalf("TSO produced the anomaly: %v", res)
		}
	}
}
