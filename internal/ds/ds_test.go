package ds

import (
	"testing"

	"armbar/internal/locks"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	if cfg.Plat == nil {
		cfg.Plat = platform.Kunpeng916()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 17
	}
	return Run(cfg)
}

func TestQueueStackSingleThreadSemantics(t *testing.T) {
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 1})
	q := newQueue(m, 8)
	st := newStack(m, 8)
	var qGot, sGot []uint64
	m.Spawn(0, func(th *sim.Thread) {
		for i := uint64(1); i <= 5; i++ {
			q.enqueue(th, i*10)
			st.push(th, i*10)
		}
		for i := 0; i < 5; i++ {
			v, ok := q.dequeue(th)
			if ok {
				qGot = append(qGot, v)
			}
			v, ok = st.pop(th)
			if ok {
				sGot = append(sGot, v)
			}
		}
		if _, ok := q.dequeue(th); ok {
			t.Error("queue should be empty")
		}
		if _, ok := st.pop(th); ok {
			t.Error("stack should be empty")
		}
	})
	m.Run()
	for i, v := range qGot {
		if v != uint64(i+1)*10 {
			t.Errorf("queue FIFO broken at %d: %d", i, v)
		}
	}
	for i, v := range sGot {
		if v != uint64(5-i)*10 {
			t.Errorf("stack LIFO broken at %d: %d", i, v)
		}
	}
}

func TestSortedListSemantics(t *testing.T) {
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 2})
	l := newList(m, 8, []uint64{2, 4, 6})
	m.Spawn(0, func(th *sim.Thread) {
		if !l.contains(th, 4) || l.contains(th, 5) {
			t.Error("preload lookup broken")
		}
		if !l.insert(th, 5) {
			t.Error("insert of new key failed")
		}
		if l.insert(th, 5) {
			t.Error("duplicate insert should fail")
		}
		if !l.contains(th, 5) {
			t.Error("inserted key not found")
		}
		if !l.remove(th, 5) {
			t.Error("remove failed")
		}
		if l.remove(th, 5) {
			t.Error("double remove should fail")
		}
		if l.contains(th, 5) {
			t.Error("removed key still present")
		}
	})
	m.Run()
	if n := listLen(m, l.head); n != 3 {
		t.Errorf("final list length %d, want 3", n)
	}
}

func TestAllStructuresAllLocksValid(t *testing.T) {
	kinds := []locks.Kind{locks.Ticket, locks.FFWD, locks.FFWDPilot, locks.DSMSynch, locks.DSMSynchPilot}
	for _, k := range kinds {
		for _, s := range []Structure{Queue, Stack} {
			r := run(t, Config{Kind: k, Struct: s, Threads: 8, Rounds: 30})
			if !r.Valid {
				t.Errorf("%v/%v: inconsistent final state", k, s)
			}
		}
		r := run(t, Config{Kind: k, Struct: List, Threads: 8, Rounds: 15, Preload: 50})
		if !r.Valid {
			t.Errorf("%v/List: inconsistent final state", k)
		}
		r = run(t, Config{Kind: k, Struct: HashTable, Threads: 8, Rounds: 15, Preload: 64, Buckets: 8})
		if !r.Valid {
			t.Errorf("%v/HashTable: inconsistent final state", k)
		}
	}
}

func TestFig8aPilotGainOnQueueStack(t *testing.T) {
	// Figure 8a: Pilot improves DSMSynch and FFWD on queue and stack
	// (paper: 20-30% / 16-26%).
	for _, s := range []Structure{Queue, Stack} {
		ds := run(t, Config{Kind: locks.DSMSynch, Struct: s, Threads: 16, Rounds: 40}).Throughput()
		dsp := run(t, Config{Kind: locks.DSMSynchPilot, Struct: s, Threads: 16, Rounds: 40}).Throughput()
		if dsp < 1.05*ds {
			t.Errorf("%v: DSynch-P (%g) should improve on DSynch (%g)", s, dsp, ds)
		}
		ff := run(t, Config{Kind: locks.FFWD, Struct: s, Threads: 16, Rounds: 40}).Throughput()
		ffp := run(t, Config{Kind: locks.FFWDPilot, Struct: s, Threads: 16, Rounds: 40}).Throughput()
		if ffp < ff {
			t.Errorf("%v: FFWD-P (%g) should not regress vs FFWD (%g)", s, ffp, ff)
		}
	}
}

func TestFig8bListGainShrinksWithLength(t *testing.T) {
	// Figure 8b: as the preloaded list grows, the critical section
	// lengthens and Pilot's relative gain falls off.
	gain := func(preload int) float64 {
		ds := run(t, Config{Kind: locks.DSMSynch, Struct: List, Threads: 12, Rounds: 12,
			Preload: preload}).Throughput()
		dsp := run(t, Config{Kind: locks.DSMSynchPilot, Struct: List, Threads: 12, Rounds: 12,
			Preload: preload}).Throughput()
		return dsp / ds
	}
	gShort, gLong := gain(20), gain(300)
	if gShort < 1.0 {
		t.Errorf("short list: Pilot should win (%.2fx)", gShort)
	}
	if gLong > gShort+0.05 {
		t.Errorf("gain should shrink with list length: short=%.2f long=%.2f", gShort, gLong)
	}
}

func TestFig8cHashTableGainShrinksWithBuckets(t *testing.T) {
	// Figure 8c: more buckets → fewer threads per lock → Pilot barely
	// used; the gain falls but stays non-negative.
	gain := func(buckets int) float64 {
		ds := run(t, Config{Kind: locks.DSMSynch, Struct: HashTable, Threads: 12, Rounds: 10,
			Preload: 128, Buckets: buckets}).Throughput()
		dsp := run(t, Config{Kind: locks.DSMSynchPilot, Struct: HashTable, Threads: 12, Rounds: 10,
			Preload: 128, Buckets: buckets}).Throughput()
		return dsp / ds
	}
	gFew, gMany := gain(2), gain(64)
	if gFew < 1.0 {
		t.Errorf("few buckets: Pilot should win (%.2fx)", gFew)
	}
	if gMany < 0.9 {
		t.Errorf("many buckets: Pilot must not cost much (%.2fx)", gMany)
	}
}
