package topo

import (
	"slices"
	"testing"
)

func build() *System {
	s := New()
	s.AddCluster(0, Big, 4)    // cores 0-3
	s.AddCluster(0, Little, 4) // cores 4-7
	s.AddCluster(1, Big, 4)    // cores 8-11
	return s
}

func TestCounts(t *testing.T) {
	s := build()
	if s.NumCores() != 12 {
		t.Errorf("NumCores = %d, want 12", s.NumCores())
	}
	if s.NumClusters() != 3 {
		t.Errorf("NumClusters = %d, want 3", s.NumClusters())
	}
	if s.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", s.NumNodes())
	}
}

func TestMembership(t *testing.T) {
	s := build()
	if s.Cluster(5) != 1 {
		t.Errorf("Cluster(5) = %d, want 1", s.Cluster(5))
	}
	if s.Node(9) != 1 {
		t.Errorf("Node(9) = %d, want 1", s.Node(9))
	}
	if s.Class(5) != Little {
		t.Errorf("Class(5) = %v, want little", s.Class(5))
	}
	if got := len(s.CoresOfClass(Big)); got != 8 {
		t.Errorf("big cores = %d, want 8", got)
	}
	if got := len(s.NodeCores(0)); got != 8 {
		t.Errorf("node-0 cores = %d, want 8", got)
	}
}

func TestDistances(t *testing.T) {
	s := build()
	cases := []struct {
		a, b CoreID
		want Distance
	}{
		{0, 0, SameCore},
		{0, 3, SameCluster},
		{0, 4, SameNode},
		{0, 8, CrossNode},
		{4, 11, CrossNode},
	}
	for _, c := range cases {
		if got := s.DistanceBetween(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Symmetry.
	for _, c := range cases {
		if s.DistanceBetween(c.a, c.b) != s.DistanceBetween(c.b, c.a) {
			t.Errorf("distance not symmetric for (%d,%d)", c.a, c.b)
		}
	}
}

func TestDistanceOrdering(t *testing.T) {
	if !(SameCore < SameCluster && SameCluster < SameNode && SameNode < CrossNode) {
		t.Fatal("Distance constants must be ordered by remoteness")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	s := build()
	mustPanic(t, func() { s.Cluster(99) })
	mustPanic(t, func() { s.Cluster(-1) })
	mustPanic(t, func() { New().AddCluster(0, Big, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestInterleaveCores(t *testing.T) {
	s := build() // node 0: cores 0-7, node 1: cores 8-11
	clients, spare := s.InterleaveCores(4)
	if want := []CoreID{0, 8, 1, 9}; !slices.Equal(clients, want) {
		t.Errorf("InterleaveCores(4) clients = %v, want %v (round-robin across nodes)", clients, want)
	}
	if spare != 11 {
		t.Errorf("InterleaveCores(4) spare = %d, want 11", spare)
	}
	// Past the machine, n clamps at NumCores-1; node 1 runs out first,
	// so the highest cores are clients and the spare sits below them.
	clients, spare = s.InterleaveCores(20)
	if want := []CoreID{0, 8, 1, 9, 2, 10, 3, 11, 4, 5, 6}; !slices.Equal(clients, want) {
		t.Errorf("InterleaveCores(20) clients = %v, want %v", clients, want)
	}
	if spare != 7 || slices.Contains(clients, spare) {
		t.Errorf("InterleaveCores(20) spare = %d, want 7, a core no client uses", spare)
	}
}
