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
	// SkipList: lock-protected skip list; same 10:1 mix (a synchrobench
	// staple beyond the paper's four structures).
	SkipList
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
	case SkipList:
		return "SkipList"
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

	nLocks := 1
	if cfg.Struct == HashTable {
		nLocks = cfg.Buckets
	}
	lks, servers := makeLocks(m, cfg, nLocks)

	// Build the structures.
	var q *queue
	var st *stack
	var sl *skiplist
	lists := make([]*list, nLocks)
	switch cfg.Struct {
	case Queue:
		q = newQueue(m, cfg.Threads+2)
	case Stack:
		st = newStack(m, cfg.Threads+2)
	case List:
		lists[0] = newList(m, cfg.Threads+2, evenKeys(cfg.Preload, 0, 1))
	case SkipList:
		sl = newSkiplist(m, cfg.Threads+2, evenKeys(cfg.Preload, 0, 1))
	case HashTable:
		per := cfg.Preload / cfg.Buckets
		for b := 0; b < cfg.Buckets; b++ {
			lists[b] = newList(m, cfg.Threads+2, evenKeys(per, b, cfg.Buckets))
		}
	}

	ok := true
	totalOps := 0
	opsOf := func() int {
		switch cfg.Struct {
		case Queue, Stack:
			return 2
		default:
			return 12 // 10 lookups + insert + remove
		}
	}
	totalOps = cfg.Threads * cfg.Rounds * opsOf()

	remaining := int64(cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		i := i
		m.Spawn(cores[i], func(t *sim.Thread) {
			for r := 0; r < cfg.Rounds; r++ {
				switch cfg.Struct {
				case Queue:
					v := keyFor(i, r)
					lks[0].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
						q.enqueue(tt, arg)
						return 0
					}, v)
					got := lks[0].Exec(t, i, func(tt *sim.Thread, _ uint64) uint64 {
						u, okd := q.dequeue(tt)
						if !okd {
							return 0
						}
						return u
					}, 0)
					if got == 0 {
						ok = false
					}
				case Stack:
					v := keyFor(i, r)
					lks[0].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
						st.push(tt, arg)
						return 0
					}, v)
					got := lks[0].Exec(t, i, func(tt *sim.Thread, _ uint64) uint64 {
						u, okd := st.pop(tt)
						if !okd {
							return 0
						}
						return u
					}, 0)
					if got == 0 {
						ok = false
					}
				case List, HashTable:
					key := keyFor(i, r)
					b := bucketOf(key, nLocks)
					l := lists[b]
					for qn := 0; qn < 10; qn++ {
						probe := uint64(2 * (qn + 1) * max(cfg.Preload/max(nLocks, 1)/11, 1))
						lks[b].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
							l.contains(tt, arg)
							return 1
						}, probe)
					}
					ins := lks[b].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
						if l.insert(tt, arg) {
							return 1
						}
						return 0
					}, key)
					rem := lks[b].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
						if l.remove(tt, arg) {
							return 1
						}
						return 0
					}, key)
					if ins == 0 || rem == 0 {
						ok = false
					}
				case SkipList:
					key := keyFor(i, r)
					for qn := 0; qn < 10; qn++ {
						probe := uint64(2 * (qn + 1) * max(cfg.Preload/11, 1))
						lks[0].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
							sl.contains(tt, arg)
							return 1
						}, probe)
					}
					ins := lks[0].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
						if sl.insert(tt, arg) {
							return 1
						}
						return 0
					}, key)
					rem := lks[0].Exec(t, i, func(tt *sim.Thread, arg uint64) uint64 {
						if sl.remove(tt, arg) {
							return 1
						}
						return 0
					}, key)
					if ins == 0 || rem == 0 {
						ok = false
					}
				}
			}
			remaining--
		})
	}
	for _, s := range servers {
		s := s
		m.Spawn(serverCore, func(t *sim.Thread) { s.Run(t, &remaining) })
	}

	cycles := m.Run()
	valid := ok && finalStateConsistent(m, cfg, q, st, sl, lists)
	return Result{
		Config:  cfg,
		Cycles:  cycles,
		Elapsed: m.Seconds(cycles),
		Ops:     totalOps,
		Valid:   valid,
		Stats:   m.Stats(),
	}
}

// makeLocks builds nLocks independent locks of the configured kind.
// FFWD variants get one dedicated server thread per lock, all stacked
// on a single spare core (the paper likewise rebinds servers onto used
// cores once 16 dedicated ones are taken).
func makeLocks(m *sim.Machine, cfg Config, nLocks int) ([]locks.Lock, []*locks.Server) {
	lks := make([]locks.Lock, nLocks)
	var servers []*locks.Server
	for b := range lks {
		var s *locks.Server
		lks[b], s = locks.New(m, cfg.Kind, cfg.Threads, isa.DMBSt, [2]isa.Barrier{})
		if s != nil {
			servers = append(servers, s)
		}
	}
	return lks, servers
}

func evenKeys(n, offset, stride int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, uint64(2*(offset+i*stride)))
	}
	return out
}

func finalStateConsistent(m *sim.Machine, cfg Config, q *queue, st *stack, sl *skiplist, lists []*list) bool {
	switch cfg.Struct {
	case Queue:
		return m.Directory().Committed(q.meta+0) == 0 && m.Directory().Committed(q.meta+8) == 0
	case Stack:
		return m.Directory().Committed(st.top+0) == 0
	case List:
		return listLen(m, lists[0].head) == cfg.Preload
	case SkipList:
		return slLen(m, sl.head) == cfg.Preload
	case HashTable:
		total := 0
		for _, l := range lists {
			total += listLen(m, l.head)
		}
		return total == (cfg.Preload/max(cfg.Buckets, 1))*cfg.Buckets
	}
	return true
}
