// Topology support: the shapes an N-node cluster can be wired in and the
// per-link state (latency, serialization bandwidth, bounded queue depth)
// the router consults when it schedules a packet onto a link. Links are
// directed — each direction of a physical cable is its own link with its
// own serialization front and queue — so asymmetric fabrics can be
// modeled with SetLink overrides.
package cluster

import "fmt"

// Topology selects how the nodes are wired.
type Topology int

const (
	// TopoFullMesh gives every node a direct link to every other node.
	TopoFullMesh Topology = iota
	// TopoRing wires node i to its two neighbors (i±1 mod N); the default
	// route is the clockwise neighbor.
	TopoRing
	// TopoStar wires every node to node 0 (the hub). Leaves default-route
	// to the hub; a hub with more than one leaf must steer each packet
	// explicitly via the NIC's RegTxDest register.
	TopoStar
)

// ParseTopology maps the CLI spellings onto a Topology.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "mesh", "full-mesh", "fullmesh":
		return TopoFullMesh, nil
	case "ring":
		return TopoRing, nil
	case "star":
		return TopoStar, nil
	}
	return 0, fmt.Errorf("unknown topology %q (want mesh, ring or star)", s)
}

// String renders the topology's canonical CLI spelling.
func (t Topology) String() string {
	switch t {
	case TopoFullMesh:
		return "mesh"
	case TopoRing:
		return "ring"
	case TopoStar:
		return "star"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// LinkConfig parameterizes one directed link.
type LinkConfig struct {
	// Latency is the propagation delay in CPU cycles from a packet
	// leaving the sender's NIC to arriving at the receiver's.
	Latency uint64
	// CyclesPerWord models serialization bandwidth: each 8-byte word of a
	// packet occupies the link's transmit front for this many cycles, and
	// packets queue behind one another. 0 = infinitely fast link.
	CyclesPerWord uint64
	// Depth bounds how many packets may be scheduled on the link (sent
	// but not yet arrived) at once; an over-subscribed link drops the
	// packet, surfaced as cluster/link_drops. 0 = unbounded.
	Depth int
}

// link is the live state of one directed link.
type link struct {
	LinkConfig
	// freeAt is the first cycle the serialization front is free (only
	// advanced when CyclesPerWord > 0).
	freeAt uint64
	// pending holds the due cycles of packets scheduled on the link and
	// not yet arrived (only maintained when Depth > 0).
	pending []uint64
	// drops counts packets this directed link refused for a full queue —
	// the per-link breakdown behind cluster/link_drops.
	drops uint64
	// outageUntil is the first cycle past the link's current injected
	// outage window (0 / past cycles: no window open). Packets scheduled
	// while the window is open are dropped as cluster/outage_drops.
	outageUntil uint64
}

// schedule books a packet of words onto the link from cycle start and
// returns its due cycle: with a bandwidth the packet serializes behind
// the one ahead, and it arrives a wire latency plus extra cycles after
// its last word. With a queue bound the due cycle joins pending.
func (lk *link) schedule(start uint64, words int, extra uint64) uint64 {
	if lk.CyclesPerWord > 0 {
		lk.freeAt = max(start, lk.freeAt) + lk.CyclesPerWord*uint64(words)
		start = lk.freeAt
	}
	due := start + lk.Latency + extra
	if lk.Depth > 0 {
		lk.pending = append(lk.pending, due)
	}
	return due
}

// buildLinks wires the adjacency matrix for cfg and computes each node's
// default route (-1 when the node has several neighbors and no natural
// "next" one, i.e. a star hub — such a node must steer via RegTxDest).
func buildLinks(cfg Config) ([][]*link, []int) {
	n := cfg.Nodes
	lc := LinkConfig{Latency: cfg.WireLatency, CyclesPerWord: cfg.Bandwidth, Depth: cfg.LinkDepth}
	links := make([][]*link, n)
	for i := range links {
		links[i] = make([]*link, n)
	}
	connect := func(i, j int) {
		if i != j && links[i][j] == nil {
			links[i][j] = &link{LinkConfig: lc}
			links[j][i] = &link{LinkConfig: lc}
		}
	}
	switch cfg.Topology {
	case TopoRing:
		for i := 0; i < n; i++ {
			connect(i, (i+1)%n)
		}
	case TopoStar:
		for i := 1; i < n; i++ {
			connect(0, i)
		}
	default: // full mesh
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				connect(i, j)
			}
		}
	}
	route := make([]int, n)
	for i := range route {
		route[i] = defaultRoute(cfg, links, i)
	}
	return links, route
}

// defaultRoute picks where node i's packets go when the guest leaves
// RegTxDest at auto.
func defaultRoute(cfg Config, links [][]*link, i int) int {
	n := cfg.Nodes
	if n < 2 {
		return -1
	}
	// A node with exactly one neighbor has no choice.
	deg, only := 0, -1
	for j, l := range links[i] {
		if l != nil {
			deg++
			only = j
		}
	}
	switch {
	case deg == 0:
		return -1
	case deg == 1:
		return only
	case cfg.Topology == TopoStar:
		return -1 // hub with several leaves: must steer explicitly
	default: // mesh and ring: clockwise neighbor
		return (i + 1) % n
	}
}

// SetLink overrides the configuration of the directed link from node i to
// node j (the reverse direction is untouched). It must name an existing
// topology edge and must be called before the cluster runs.
func (c *Cluster) SetLink(i, j int, lc LinkConfig) error {
	if i < 0 || i >= len(c.nodes) || j < 0 || j >= len(c.nodes) {
		return fmt.Errorf("cluster: SetLink(%d, %d): node index out of range", i, j)
	}
	l := c.links[i][j]
	if l == nil {
		return fmt.Errorf("cluster: SetLink(%d, %d): no such link in %s topology", i, j, c.cfg.Topology)
	}
	l.LinkConfig = lc
	return nil
}

// Link returns the configuration of the directed link from i to j and
// whether that link exists.
func (c *Cluster) Link(i, j int) (LinkConfig, bool) {
	if i < 0 || i >= len(c.nodes) || j < 0 || j >= len(c.nodes) || c.links[i][j] == nil {
		return LinkConfig{}, false
	}
	return c.links[i][j].LinkConfig, true
}

// DefaultRoute returns where node i's auto-routed packets go (-1 when the
// node must steer explicitly).
func (c *Cluster) DefaultRoute(i int) int { return c.route[i] }
