// Package dedup reproduces the paper's PARSEC-dedup experiment (§4.5,
// Figure 6d): a pipeline-parallel compressor whose stages communicate
// through an inter-stage buffer. Three buffer implementations are
// compared — the original lock-based queue (Q), a lock-free
// single-producer single-consumer ring buffer (RB), and the ring
// buffer with Pilot applied (RB-P). As in the paper, file I/O is
// removed: the input is synthesized in memory and the output is
// gathered in memory, so the stage-to-stage communication dominates.
//
// The pipeline has three stages, mirroring dedup's structure:
//
//	chunk  — split the input stream into chunks (fine-grained work)
//	hash   — fingerprint each chunk and deduplicate against a table
//	store  — "compress" unique chunks (work proportional to size)
//
// Every stage runs on its own simulated core; each hop goes through
// the configured buffer.
package dedup

import (
	"fmt"

	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/pc"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Buffer selects the inter-stage communication buffer.
type Buffer int

const (
	// Q is the original lock-guarded queue: a pc.TicketRing, whose
	// head/tail updates a ticket lock protects.
	Q Buffer = iota
	// RB is a lock-free SPSC ring with the conventional counter+barrier
	// protocol (DMB ld / DMB st, the best Figure-6a combo).
	RB
	// RBP is the ring buffer with Pilot slots (no publication barrier,
	// no producer counter).
	RBP
)

func (b Buffer) String() string {
	switch b {
	case Q:
		return "Q"
	case RB:
		return "RB"
	case RBP:
		return "RB-P"
	default:
		return fmt.Sprintf("Buffer(%d)", int(b))
	}
}

// slots is every hop's ring capacity.
const slots = 8

// Workload is one of the paper's three input sizes.
type Workload struct {
	Name   string
	Chunks int // number of chunks flowing through the pipeline
	Work   int // per-chunk nops in the hash stage
}

// Workloads mirrors the paper's Small (672MB) / Middle (1.1GB) /
// Large (3.5GB) inputs, scaled to simulation size: the chunk count
// grows with the input, per-chunk work stays fixed. The work is large
// enough that the pipeline is compute-bound, as real dedup is — buffer
// choice then moves throughput by the ~10% the paper reports, not by
// multiples. (The low-work micro regime lives in the tests, where the
// paper's 1.8-2.2x ring-buffer speedups are checked.)
func Workloads() []Workload {
	return []Workload{
		{Name: "Small", Chunks: 600, Work: 3600},
		{Name: "Middle", Chunks: 1000, Work: 3600},
		{Name: "Large", Chunks: 1600, Work: 3600},
	}
}

// Config describes one pipeline run.
type Config struct {
	Plat   *platform.Platform
	Buffer Buffer
	W      Workload
	Seed   int64
	// CrossNode places consecutive stages on different NUMA nodes when
	// the platform has them.
	CrossNode bool
}

// Result is one run's outcome.
type Result struct {
	Config  Config
	Cycles  float64
	Elapsed float64
	Chunks  int
	Unique  int  // chunks surviving dedup
	Valid   bool // output checksum matches a sequential reference
	Stats   sim.Stats
}

// Throughput returns chunks per second ("compress speed").
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Chunks) / r.Elapsed
}

// chunkValue synthesizes chunk i's content fingerprint; every fourth
// chunk repeats an earlier one so the dedup stage has real hits.
func chunkValue(i int) uint64 {
	if i%4 == 3 {
		return chunkValue(i / 2 >> 1 << 1) // repeat an earlier even chunk
	}
	return uint64(i)*0x9E3779B97F4A7C15 + 1
}

// reference computes the expected output checksum sequentially.
func reference(w Workload) (checksum uint64, unique int) {
	seen := make(map[uint64]bool)
	for i := 0; i < w.Chunks; i++ {
		v := chunkValue(i)
		if !seen[v] {
			seen[v] = true
			unique++
			checksum ^= v * 0x94D049BB133111EB
		}
	}
	return checksum, unique
}

// Run executes the pipeline.
func Run(cfg Config) Result {
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	cores := stageCores(cfg.Plat, cfg.CrossNode)
	in := newHop(m, cfg.Buffer, 1)
	out := newHop(m, cfg.Buffer, 2)

	var gotChecksum uint64
	var gotUnique int

	// Stage 1: chunk the input.
	m.Spawn(cores[0], func(t *sim.Thread) {
		for i := 0; i < cfg.W.Chunks; i++ {
			t.Nops(cfg.W.Work / 3) // chunking work
			in.Send(t, chunkValue(i))
		}
		in.Send(t, 0) // end-of-stream
	})

	// Stage 2: hash + dedup.
	m.Spawn(cores[1], func(t *sim.Thread) {
		seen := make(map[uint64]bool)
		for {
			v := in.Recv(t)
			if v == 0 {
				out.Send(t, 0)
				return
			}
			t.Nops(cfg.W.Work) // fingerprinting work
			if seen[v] {
				continue // duplicate: drop
			}
			seen[v] = true
			out.Send(t, v)
		}
	})

	// Stage 3: "compress" and gather output in memory until
	// end-of-stream, polling and pausing after each empty poll.
	m.Spawn(cores[2], func(t *sim.Thread) {
		for {
			v, ok := out.TryRecv(t)
			if !ok {
				t.Nops(8)
				continue
			}
			if v == 0 {
				return
			}
			t.Nops(cfg.W.Work / 2) // compression work
			gotChecksum ^= v * 0x94D049BB133111EB
			gotUnique++
		}
	})

	cycles := m.Run()
	wantChecksum, wantUnique := reference(cfg.W)
	return Result{
		Config:  cfg,
		Cycles:  cycles,
		Elapsed: m.Seconds(cycles),
		Chunks:  cfg.W.Chunks,
		Unique:  gotUnique,
		Valid:   gotChecksum == wantChecksum && gotUnique == wantUnique,
		Stats:   m.Stats(),
	}
}

// stageCores places the three stages.
func stageCores(p *platform.Platform, cross bool) [3]topo.CoreID {
	if cross && p.Sys.NumNodes() > 1 {
		n0, n1 := p.Sys.NodeCores(0), p.Sys.NodeCores(1)
		return [3]topo.CoreID{n0[0], n1[0], n0[4]}
	}
	return [3]topo.CoreID{0, 1, 2}
}

// hop is one stage-to-stage connection. Payload zero is reserved for
// end-of-stream (chunkValue never produces zero).
type hop interface {
	Send(t *sim.Thread, v uint64)
	Recv(t *sim.Thread) uint64
	// TryRecv takes one value without blocking; ok reports success. The
	// end-of-stream zero counts as a value.
	TryRecv(t *sim.Thread) (v uint64, ok bool)
}

// newHop allocates a hop of flavor b; id seeds an RB-P hop's hash pool.
func newHop(m *sim.Machine, b Buffer, id int) hop {
	switch b {
	case Q:
		return pc.NewTicketRing(m, slots)
	case RB:
		return ring{pc.NewClassicRing(m, pc.Combo{Avail: isa.DMBLd, Publish: isa.DMBSt}, slots, 1, 8)}
	default:
		return ring{pc.NewPilotRing(m, core.HashPool(uint64(id)*131), slots, 1, 8, 2)}
	}
}

// ring is a one-slice pc.Ring as a hop: every receive waits for,
// reads and releases one message.
type ring struct{ *pc.Ring }

func (r ring) Send(t *sim.Thread, v uint64) {
	r.Reserve(t)
	r.Put(t, 0, v)
	r.Publish(t)
}

func (r ring) Recv(t *sim.Thread) uint64 {
	r.Wait(t)
	return r.take(t)
}

func (r ring) TryRecv(t *sim.Thread) (uint64, bool) {
	if r.TryWait(t) == 0 {
		return 0, false
	}
	return r.take(t), true
}

func (r ring) take(t *sim.Thread) uint64 {
	v := r.Get(t, 0)
	r.Release(t)
	return v
}
