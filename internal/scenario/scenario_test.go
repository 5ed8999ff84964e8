package scenario

import (
	"bytes"
	"strings"
	"testing"
)

const mpSpec = `{
  "platform": "Kunpeng916",
  "seed": 3,
  "vars": ["data", "flag"],
  "threads": [
    {"core": 0, "ops": [
      {"op": "store", "var": "data", "value": 23},
      {"op": "barrier", "barrier": "DMB st"},
      {"op": "store", "var": "flag", "value": 1}
    ]},
    {"core": 32, "ops": [
      {"op": "spin_eq", "var": "flag", "value": 1},
      {"op": "barrier", "barrier": "DMB ld"},
      {"op": "load", "var": "data"}
    ]}
  ]
}`

func TestParseAndRunMessagePassing(t *testing.T) {
	spec, err := Parse(strings.NewReader(mpSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final["data"] != 23 || res.Final["flag"] != 1 {
		t.Fatalf("final state wrong: %v", res.Final)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if len(res.Threads) != 2 {
		t.Fatalf("thread stats count %d", len(res.Threads))
	}
	if res.Threads[0].Stores == 0 || res.Threads[1].Loads == 0 {
		t.Fatalf("stats not collected: %+v", res.Threads)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown platform", `{"platform":"nope","vars":[],"threads":[{"core":0,"ops":[]}]}`, "unknown platform"},
		{"bad mode", `{"platform":"Kunpeng916","mode":"SC","vars":[],"threads":[{"core":0,"ops":[]}]}`, "mode must be"},
		{"no threads", `{"platform":"Kunpeng916","vars":[]}`, "no threads"},
		{"bad core", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":99,"ops":[]}]}`, "out of range"},
		{"unknown var", `{"platform":"Kunpeng916","vars":["x"],"threads":[{"core":0,"ops":[{"op":"load","var":"y"}]}]}`, "unknown var"},
		{"unknown barrier", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"barrier","barrier":"MFENCE"}]}]}`, "unknown barrier"},
		{"unknown op", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"jump"}]}]}`, "unknown op"},
		{"bad nops", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"nops"}]}]}`, "needs n > 0"},
		{"duplicate var", `{"platform":"Kunpeng916","vars":["x","x"],"threads":[{"core":0,"ops":[{"op":"load","var":"x"}]}]}`, "duplicate var"},
		{"LDAR barrier", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"barrier","barrier":"LDAR"}]}]}`, `op "loadacq"`},
		{"LDAPR barrier", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"barrier","barrier":"LDAPR"}]}]}`, `op "loadacqpc"`},
		{"STLR barrier", `{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"barrier","barrier":"STLR"}]}]}`, `op "storerel"`},
	}
	for _, c := range cases {
		spec, err := Parse(strings.NewReader(c.json))
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		err = spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// watchdogSpec passes Validate but works past the simulator's MaxTime
// watchdog (5e10 cycles) before its first memory op.
const watchdogSpec = `{"platform":"Kunpeng916","vars":["x"],"threads":[{"core":0,"ops":[
  {"op":"work","n":100000000000},{"op":"load","var":"x"}]}]}`

func TestRunReturnsSimulationAbort(t *testing.T) {
	spec, err := Parse(strings.NewReader(watchdogSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(nil)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("Run = %+v, %v; want the watchdog abort as an error", res, err)
	}
}

// emptyLoopSpec loops over bodies that emit no machine op.
const emptyLoopSpec = `{"platform":"Kunpeng916","vars":["x"],"threads":[
  {"core":0,"loop":3,"ops":[]},
  {"core":1,"loop":5,"ops":[{"op":"barrier","barrier":"No Barrier"}]},
  {"core":2,"loop":2,"ops":[{"op":"store","var":"x","value":4}]}]}`

func TestEmptyLoopBodyRuns(t *testing.T) {
	spec, err := Parse(strings.NewReader(emptyLoopSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final["x"] != 4 || len(res.Threads) != 3 {
		t.Fatalf("final %v, %d thread stats", res.Final, len(res.Threads))
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"platform":"Kunpeng916","typo":1}`))
	if err == nil {
		t.Fatal("unknown field should fail parsing")
	}
}

func TestAtomicsAndSpins(t *testing.T) {
	spec, err := Parse(strings.NewReader(`{
	  "platform": "Kirin960",
	  "seed": 5,
	  "vars": ["ctr", "turn"],
	  "init": {"turn": 1},
	  "threads": [
	    {"core": 0, "loop": 50, "ops": [
	      {"op": "spin_eq", "var": "turn", "value": 1},
	      {"op": "fetchadd", "var": "ctr", "value": 1},
	      {"op": "swap", "var": "turn", "value": 2}
	    ]},
	    {"core": 1, "loop": 50, "ops": [
	      {"op": "spin_eq", "var": "turn", "value": 2},
	      {"op": "fetchadd", "var": "ctr", "value": 1},
	      {"op": "swap", "var": "turn", "value": 1}
	    ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final["ctr"] != 100 {
		t.Fatalf("alternating counter = %d, want 100", res.Final["ctr"])
	}
}

func TestTSOMode(t *testing.T) {
	spec, err := Parse(strings.NewReader(`{
	  "platform": "Kunpeng916", "mode": "TSO", "seed": 7,
	  "vars": ["x"],
	  "threads": [{"core": 0, "loop": 10, "ops": [{"op":"store","var":"x","value":9}]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final["x"] != 9 {
		t.Fatalf("x = %d", res.Final["x"])
	}
}

// fuzzMaxOps bounds the machine ops (loop count x ops, summed over the
// threads) of a spec FuzzScenario runs, so every input stays fast.
const fuzzMaxOps = 4096

// fuzzable reports whether FuzzScenario should run the spec: it has no
// spin op (a spin on a variable nobody writes polls until the
// 5e10-cycle watchdog) and at most fuzzMaxOps machine ops.
func fuzzable(s *Spec) bool {
	ops := 0
	for _, th := range s.Threads {
		for _, op := range th.Ops {
			if strings.HasPrefix(op.Op, "spin_") {
				return false
			}
		}
		ops += min(max(th.Loop, 1), fuzzMaxOps+1) * len(th.Ops)
		if ops > fuzzMaxOps {
			return false
		}
	}
	return true
}

// FuzzScenario checks that scenario JSON, which comes from outside the
// program, can never panic Parse, Validate or Run: a spec either fails
// with an error or runs to a Result with one ThreadStats per thread.
func FuzzScenario(f *testing.F) {
	f.Add([]byte(mpSpec))
	f.Add([]byte(watchdogSpec))
	f.Add([]byte(emptyLoopSpec))
	f.Add([]byte(`{"platform":"Kunpeng916","vars":["x","x"],"threads":[{"core":0,"ops":[{"op":"load","var":"x"}]}]}`))
	for _, bar := range []string{"LDAR", "LDAPR", "STLR"} {
		f.Add([]byte(`{"platform":"Kunpeng916","vars":[],"threads":[{"core":0,"ops":[{"op":"barrier","barrier":"` + bar + `"}]}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(bytes.NewReader(data))
		if err != nil || spec.Validate() != nil || !fuzzable(spec) {
			return
		}
		res, err := spec.Run(nil)
		if err != nil {
			// With Validate passed and no spin to hang, Run may only
			// reject an init of an undeclared var or abort on a work
			// op that runs past the MaxTime watchdog.
			if msg := err.Error(); !strings.Contains(msg, "init of unknown var") && !strings.Contains(msg, "watchdog") {
				t.Fatalf("Run: %v", err)
			}
			return
		}
		if len(res.Threads) != len(spec.Threads) {
			t.Fatalf("%d ThreadStats for %d threads", len(res.Threads), len(spec.Threads))
		}
	})
}
