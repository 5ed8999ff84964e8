package sim

import "armbar/internal/topo"

// TraceKind classifies a traced operation.
type TraceKind int

const (
	// TraceLoad is a load (hit, stale hit, or miss; see Detail).
	TraceLoad TraceKind = iota
	// TraceStore is a store issue (its commit is a separate event).
	TraceStore
	// TraceCommit is a store commit becoming globally visible.
	TraceCommit
	// TraceBarrier is a standalone barrier/dependency instruction.
	TraceBarrier
	// TraceRMW is an atomic read-modify-write.
	TraceRMW
	// TraceWork is local computation (nops).
	TraceWork
)

func (k TraceKind) String() string {
	switch k {
	case TraceLoad:
		return "load"
	case TraceStore:
		return "store"
	case TraceCommit:
		return "commit"
	case TraceBarrier:
		return "barrier"
	case TraceRMW:
		return "rmw"
	case TraceWork:
		return "work"
	default:
		return "?"
	}
}

// TraceEvent is one operation as observed by the scheduler.
type TraceEvent struct {
	Thread int
	Core   topo.CoreID
	Kind   TraceKind
	Addr   uint64 // zero for work/barrier events
	Start  float64
	End    float64
	Detail string // "miss", "stale", "hit", barrier name, ...
}

// Tracer receives every simulated operation. Implementations must be
// fast; they run inline in the scheduler. Package trace provides a
// recorder and exporters.
type Tracer interface {
	Event(TraceEvent)
}

// SetTracer installs a tracer; call before Run. A nil tracer disables
// tracing (the default).
func (m *Machine) SetTracer(tr Tracer) {
	if m.started {
		panic("sim: SetTracer after Run")
	}
	m.tracer = tr
}

// emit sends an event to the tracer if one is installed.
func (m *Machine) emit(t *Thread, kind TraceKind, addr uint64, start, end float64, detail string) {
	if m.tracer == nil {
		return
	}
	m.tracer.Event(TraceEvent{
		Thread: t.id, Core: t.core, Kind: kind, Addr: addr,
		Start: start, End: end, Detail: detail,
	})
}
