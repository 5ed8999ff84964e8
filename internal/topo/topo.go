// Package topo describes the topology of a simulated ARM system: cores
// grouped into clusters, clusters grouped into NUMA nodes, and the ACE
// shareability boundaries that barrier transactions must reach.
//
// The model follows the ARM AMBA ACE picture the paper works from
// (its Figure 1): every cluster interconnect is an "inner bi-section
// boundary" (downstream of a subset of masters), and the top-level
// interconnect is the "inner domain boundary" (downstream of all masters
// in the inner shareable domain).
package topo

import (
	"fmt"
	"slices"
)

// CoreID identifies a core within a System. Cores are numbered densely
// from 0 in cluster order.
type CoreID int

// CoreClass distinguishes heterogeneous (big.LITTLE) core types.
type CoreClass int

const (
	// Big marks a high-performance core (e.g. Cortex-A73).
	Big CoreClass = iota
	// Little marks an efficiency core (e.g. Cortex-A53).
	Little
)

func (c CoreClass) String() string {
	switch c {
	case Big:
		return "big"
	case Little:
		return "little"
	default:
		return fmt.Sprintf("CoreClass(%d)", int(c))
	}
}

// Cluster is a group of cores sharing an inner bi-section boundary.
type Cluster struct {
	Node  int       // NUMA node the cluster belongs to
	Class CoreClass // core type within this cluster
	Cores []CoreID  // dense core ids in this cluster
}

// System is an immutable description of the machine topology.
// Build one with New and the Add* helpers, or use a preset from
// package platform.
type System struct {
	clusters []Cluster
	core2cl  []int // core id -> cluster index
	nodes    int
}

// New returns an empty system description.
func New() *System { return &System{} }

// AddCluster appends a cluster of n cores of the given class on the given
// NUMA node and returns the ids of the new cores.
func (s *System) AddCluster(node int, class CoreClass, n int) []CoreID {
	if n <= 0 {
		panic("topo: cluster must have at least one core")
	}
	ids := make([]CoreID, n)
	for i := range ids {
		id := CoreID(len(s.core2cl))
		ids[i] = id
		s.core2cl = append(s.core2cl, len(s.clusters))
	}
	s.clusters = append(s.clusters, Cluster{Node: node, Class: class, Cores: ids})
	if node+1 > s.nodes {
		s.nodes = node + 1
	}
	return ids
}

// NumCores reports the total number of cores.
func (s *System) NumCores() int { return len(s.core2cl) }

// NumClusters reports the number of clusters (bi-section boundaries).
func (s *System) NumClusters() int { return len(s.clusters) }

// NumNodes reports the number of NUMA nodes.
func (s *System) NumNodes() int { return s.nodes }

// Cluster returns the cluster index of core c.
func (s *System) Cluster(c CoreID) int {
	s.check(c)
	return s.core2cl[c]
}

// Node returns the NUMA node of core c.
func (s *System) Node(c CoreID) int {
	return s.clusters[s.Cluster(c)].Node
}

// Class returns the core class of core c.
func (s *System) Class(c CoreID) CoreClass {
	return s.clusters[s.Cluster(c)].Class
}

// ClusterCores returns the cores in cluster i.
func (s *System) ClusterCores(i int) []CoreID { return s.clusters[i].Cores }

// CoresOfClass returns all cores of the given class, in id order.
func (s *System) CoresOfClass(class CoreClass) []CoreID {
	var out []CoreID
	for _, cl := range s.clusters {
		if cl.Class == class {
			out = append(out, cl.Cores...)
		}
	}
	return out
}

// NodeCores returns all cores on NUMA node n, in id order.
func (s *System) NodeCores(n int) []CoreID {
	var out []CoreID
	for _, cl := range s.clusters {
		if cl.Node == n {
			out = append(out, cl.Cores...)
		}
	}
	return out
}

// InterleaveCores assigns n client cores round-robin across NUMA
// nodes, the way a full-machine binding (the paper uses 63 threads on
// both nodes) spreads them, clamping n at NumCores-1. The spare core
// returned is the highest-numbered core no client uses; workloads with
// dedicated servers (FFWD) run them there.
func (s *System) InterleaveCores(n int) (clients []CoreID, spare CoreID) {
	total := s.NumCores()
	if n >= total {
		n = total - 1
	}
	var lists [][]CoreID
	for node := 0; node < s.NumNodes(); node++ {
		lists = append(lists, s.NodeCores(node))
	}
	clients = make([]CoreID, 0, n)
	for i := 0; len(clients) < n; i++ {
		l := lists[i%len(lists)]
		if k := i / len(lists); k < len(l) {
			clients = append(clients, l[k])
		}
	}
	spare = CoreID(total - 1)
	for slices.Contains(clients, spare) {
		spare--
	}
	return clients, spare
}

// Distance classifies the communication distance between two cores.
type Distance int

const (
	// SameCore means a == b.
	SameCore Distance = iota
	// SameCluster means the cores share a bi-section boundary.
	SameCluster
	// SameNode means the cores are in different clusters of one NUMA node.
	SameNode
	// CrossNode means the cores are on different NUMA nodes.
	CrossNode
)

func (d Distance) String() string {
	switch d {
	case SameCore:
		return "same-core"
	case SameCluster:
		return "same-cluster"
	case SameNode:
		return "same-node"
	case CrossNode:
		return "cross-node"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// DistanceBetween classifies the distance between cores a and b.
func (s *System) DistanceBetween(a, b CoreID) Distance {
	if a == b {
		return SameCore
	}
	ca, cb := s.Cluster(a), s.Cluster(b)
	if ca == cb {
		return SameCluster
	}
	if s.clusters[ca].Node == s.clusters[cb].Node {
		return SameNode
	}
	return CrossNode
}

func (s *System) check(c CoreID) {
	if c < 0 || int(c) >= len(s.core2cl) {
		panic(fmt.Sprintf("topo: core %d out of range [0,%d)", c, len(s.core2cl)))
	}
}
