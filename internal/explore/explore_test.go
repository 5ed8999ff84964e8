package explore

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"armbar/internal/sim"
)

// expectedMinimal pins the minimal safe placements of every shape
// under both modes — the hand-derived ground truth the explorer must
// reproduce (and absmodel's closed-form requirements agree with, see
// agreement_test.go).
var expectedMinimal = map[sim.Mode]map[string][]Placement{
	sim.WMM: {
		"MP":     {0b11},
		"SB":     {0b11},
		"S":      {0b01},
		"R":      {0b11},
		"2+2W":   {0b11},
		"LB":     {0b00},
		"WRC":    {0b10},
		"CoRR":   {0b1},
		"CoWW":   {0},
		"SB+RMW": {0},
		"chan":   {0b110},
		"pilot":  {0},
	},
	sim.TSO: {
		"MP":     {0b00},
		"SB":     {0b11},
		"S":      {0b00},
		"R":      {0b10},
		"2+2W":   {0b00},
		"LB":     {0b00},
		"WRC":    {0b00},
		"CoRR":   {0b0},
		"CoWW":   {0},
		"SB+RMW": {0},
		"chan":   {0b000},
		"pilot":  {0},
	},
}

func TestMinimalPlacements(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			rep := Minimize(s, mode, DefaultBound)
			want := expectedMinimal[mode][s.Name]
			if !reflect.DeepEqual(rep.Minimal, want) {
				t.Errorf("%s under %v: minimal %v, want %v", s.Name, mode, rep.Minimal, want)
			}
			if !rep.NaiveSafe {
				t.Errorf("%s under %v: naive placement unsafe", s.Name, mode)
			}
		}
	}
}

// TestBoundSaturation pins that the gate bound saturates the
// reachable sets: raising it changes no outcome set at the empty or
// naive placement of any shape.
func TestBoundSaturation(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			for _, pl := range []Placement{0, Naive(s)} {
				base := Explore(s, pl, mode, DefaultBound)
				wide := Explore(s, pl, mode, DefaultBound+2)
				if !reflect.DeepEqual(base.Outcomes, wide.Outcomes) {
					t.Errorf("%s%s under %v: outcomes grow past bound %d: %v vs %v",
						s.Name, pl.Describe(s), mode, DefaultBound, base.Outcomes, wide.Outcomes)
				}
			}
		}
	}
}

func TestPilotCheck(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		rep := PilotCheck(mode, DefaultBound)
		if !rep.OK() {
			for _, st := range rep.Steps {
				t.Logf("%-16s safe=%v expect=%v", st.Name, st.Safe, st.ExpectSafe)
			}
			t.Fatalf("pilot check failed under %v", mode)
		}
	}
	// The WMM derivation specifically: dropping the availability DMB
	// is the only safe single removal.
	rep := PilotCheck(sim.WMM, DefaultBound)
	for _, st := range rep.Steps {
		switch st.Name {
		case "chan - avail", "chan naive", "pilot word":
			if !st.Safe {
				t.Errorf("%s: want safe", st.Name)
			}
		case "chan - publish", "chan - consume":
			if st.Safe {
				t.Errorf("%s: want unsafe", st.Name)
			}
			if len(st.Witness) == 0 {
				t.Errorf("%s: unsafe step carries no witness", st.Name)
			}
		}
	}
}

// TestWitness pins the traced engine's counterexamples: at every
// placement of every fixed shape, in both modes, an unsafe verdict
// carries a trace of at least one step ending in one of its forbidden
// outcomes, and a safe verdict carries none.
func TestWitness(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			for pl := Placement(0); pl <= Naive(s); pl++ {
				r := Explore(s, pl, mode, DefaultBound)
				if r.Safe() {
					if r.Witness != nil {
						t.Errorf("%s%s under %v: safe placement carries a witness %q",
							s.Name, pl.Describe(s), mode, r.Witness)
					}
					continue
				}
				if len(r.Witness) < 2 {
					t.Errorf("%s%s under %v: unsafe placement carries witness %q",
						s.Name, pl.Describe(s), mode, r.Witness)
					continue
				}
				last := r.Witness[len(r.Witness)-1]
				o, ok := strings.CutPrefix(last, "outcome ")
				if !ok || !slices.Contains(r.Forbidden, Outcome(o)) {
					t.Errorf("%s%s under %v: witness ends in %q, want \"outcome \" plus one of %v",
						s.Name, pl.Describe(s), mode, last, r.Forbidden)
				}
			}
		}
	}
}
