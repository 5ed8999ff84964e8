package barrier

import (
	"testing"

	"armbar/internal/platform"
)

// small returns a config exercising every algorithm cheaply: 16
// threads (a power of treeRadix, so the combining tree accepts it) on
// the 64-core Kunpeng 916 model.
func small() Config {
	return Config{
		Plat:    platform.Kunpeng916(),
		Threads: 16,
		Rounds:  3,
		Seed:    42,
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, a := range Algos() {
		first, err := Run(a, small())
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		again, err := Run(a, small())
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if first.Cycles != again.Cycles {
			t.Errorf("%v: run-to-run drift: %.1f vs %.1f cycles", a, first.Cycles, again.Cycles)
		}
	}
}

func TestMoreRoundsCostMore(t *testing.T) {
	for _, a := range Algos() {
		short := small()
		short.Rounds = 2
		long := small()
		long.Rounds = 6
		rs, err := Run(a, short)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		rl, err := Run(a, long)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if rl.Cycles <= rs.Cycles {
			t.Errorf("%v: 6 rounds (%.1f cycles) not costlier than 2 (%.1f)",
				a, rl.Cycles, rs.Cycles)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := small()
	cases := []struct {
		name string
		algo Algo
		mut  func(*Config)
	}{
		{"nil platform", Central, func(c *Config) { c.Plat = nil }},
		{"one thread", Central, func(c *Config) { c.Threads = 1 }},
		{"too many threads", Central, func(c *Config) { c.Threads = 65 }},
		{"zero rounds", Central, func(c *Config) { c.Rounds = 0 }},
		{"tree non-power", CombiningTree, func(c *Config) { c.Threads = 24 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(tc.algo, cfg); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, a := range Algos() {
		got, err := ByName(a.String())
		if err != nil || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope): expected an error")
	}
}

// TestScaleOut256 is the `make scalecheck` smoke: a 256-core
// sense-reversing barrier on the scale-out preset, run under the race
// detector in CI. Dissemination rides along as the no-hot-line
// contrast.
func TestScaleOut256(t *testing.T) {
	cfg := Config{
		Plat:    platform.MustScaleOut(256),
		Threads: 256,
		Rounds:  2,
		Seed:    42,
	}
	for _, a := range []Algo{SenseReversing, Dissemination} {
		r, err := Run(a, cfg)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if r.Cycles <= 0 {
			t.Errorf("%v: non-positive cycles", a)
		}
	}
}

// TestScaleOut1024 is the scale-out acceptance check: a 1024-thread
// sense-reversing barrier runs to completion.
func TestScaleOut1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-thread run skipped in -short")
	}
	cfg := Config{
		Plat:    platform.MustScaleOut(1024),
		Threads: 1024,
		Rounds:  2,
		Seed:    42,
	}
	r, err := Run(SenseReversing, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Errorf("non-positive cycles %.1f", r.Cycles)
	}
}
