package ds

import (
	"fmt"

	"armbar/internal/isa"
	"armbar/internal/locks"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// Structure selects the benchmarked data structure.
type Structure int

const (
	// Queue: each operation round is one enqueue then one dequeue.
	Queue Structure = iota
	// Stack: one push then one pop.
	Stack
	// List: sorted linked list; ten lookups then one insert and one
	// remove (the paper's 10-query:1-update mix).
	List
	// HashTable: per-bucket list+lock; same 10:1 mix.
	HashTable
)

func (s Structure) String() string {
	switch s {
	case Queue:
		return "Queue"
	case Stack:
		return "Stack"
	case List:
		return "LinkList"
	case HashTable:
		return "HashTable"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// Config describes one data-structure benchmark run.
type Config struct {
	Plat    *platform.Platform
	Kind    locks.Kind
	Struct  Structure
	Threads int
	Rounds  int // operation rounds per thread
	Preload int // preloaded elements (List: Figure 8b x-axis; HashTable: 512)
	Buckets int // HashTable bucket count (Figure 8c x-axis)
	Seed    int64
}

// Result is one run's outcome.
type Result struct {
	Config  Config
	Cycles  float64
	Elapsed float64
	Ops     int // total structure operations executed
	Valid   bool
	Stats   sim.Stats
}

// Throughput returns structure operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed
}

// keyFor spreads per-thread keys so list updates hit distinct keys.
func keyFor(thread, round int) uint64 {
	return uint64(thread)<<32 | uint64(round+1)<<1 | 1 // odd keys; preload uses even
}

// bucketOf hashes a key to its bucket with a full-width mix so every
// key bit influences the choice (a plain modulus would drop the
// thread bits and pile all threads onto one bucket per round).
func bucketOf(key uint64, nLocks int) int {
	h := key * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(nLocks))
}

// Run executes the benchmark.
func Run(cfg Config) Result {
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 60
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	cores, serverCore := cfg.Plat.Sys.InterleaveCores(cfg.Threads)
	cfg.Threads = len(cores)

	// One lock per bucket. FFWD servers all stack on the one spare core
	// (the paper likewise rebinds servers onto used cores once 16
	// dedicated ones are taken).
	nLocks := 1
	if cfg.Struct == HashTable {
		nLocks = cfg.Buckets
	}
	lks := make([]locks.Lock, nLocks)
	for b := range lks {
		lks[b] = locks.New(m, cfg.Kind, cfg.Threads, isa.DMBSt, [2]isa.Barrier{})
	}

	// Build the structure behind the locks and the rounds that use it:
	// a queue or stack round puts one key and takes one back; a list or
	// hash-table round makes ten lookups, then inserts a key and removes
	// it. consistent checks the committed final state.
	ok := true
	var body func(t *sim.Thread, i int)
	var consistent func() bool
	roundOps := 2
	switch cfg.Struct {
	case Queue, Stack:
		var put, take locks.CS
		if cfg.Struct == Queue {
			q := newQueue(m, cfg.Threads+2)
			put = func(t *sim.Thread, v uint64) uint64 { q.enqueue(t, v); return 0 }
			take = func(t *sim.Thread, _ uint64) uint64 { v, _ := q.dequeue(t); return v }
			consistent = func() bool {
				return m.Directory().Committed(q.meta+0) == 0 && m.Directory().Committed(q.meta+8) == 0
			}
		} else {
			st := newStack(m, cfg.Threads+2)
			put = func(t *sim.Thread, v uint64) uint64 { st.push(t, v); return 0 }
			take = func(t *sim.Thread, _ uint64) uint64 { v, _ := st.pop(t); return v }
			consistent = func() bool { return m.Directory().Committed(st.top+0) == 0 }
		}
		body = func(t *sim.Thread, i int) {
			for r := 0; r < cfg.Rounds; r++ {
				lks[0].Exec(t, i, put, keyFor(i, r))
				if lks[0].Exec(t, i, take, 0) == 0 {
					ok = false
				}
			}
		}
	case List, HashTable:
		roundOps = 12
		per := cfg.Preload / nLocks
		lists := make([]*list, nLocks)
		for b := range lists {
			lists[b] = newList(m, cfg.Threads+2, evenKeys(per, b, nLocks))
		}
		step := max(per/11, 1) // spacing of the lookup keys
		body = func(t *sim.Thread, i int) {
			for r := 0; r < cfg.Rounds; r++ {
				key := keyFor(i, r)
				b := bucketOf(key, nLocks)
				l, lk := lists[b], lks[b]
				for qn := 0; qn < 10; qn++ {
					lk.Exec(t, i, func(t *sim.Thread, arg uint64) uint64 {
						l.contains(t, arg)
						return 1
					}, uint64(2*(qn+1)*step))
				}
				ins := lk.Exec(t, i, func(t *sim.Thread, arg uint64) uint64 { return bit(l.insert(t, arg)) }, key)
				rem := lk.Exec(t, i, func(t *sim.Thread, arg uint64) uint64 { return bit(l.remove(t, arg)) }, key)
				if ins == 0 || rem == 0 {
					ok = false
				}
			}
		}
		consistent = func() bool {
			total := 0
			for _, l := range lists {
				total += listLen(m, l.head)
			}
			return total == per*nLocks
		}
	default:
		panic(fmt.Sprintf("ds: unknown structure %v", cfg.Struct))
	}

	cycles := locks.Run(m, lks, cores, serverCore, body)
	return Result{
		Config:  cfg,
		Cycles:  cycles,
		Elapsed: m.Seconds(cycles),
		Ops:     cfg.Threads * cfg.Rounds * roundOps,
		Valid:   ok && consistent(),
		Stats:   m.Stats(),
	}
}

// bit is a critical section's result for b: 1 if true, 0 if false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func evenKeys(n, offset, stride int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, uint64(2*(offset+i*stride)))
	}
	return out
}
