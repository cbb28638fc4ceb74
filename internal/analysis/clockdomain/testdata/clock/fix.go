// Package fix seeds clock-domain violations: cycle stamps read from two
// different machines' Cycle() compared or subtracted — the seeded bug
// being a cross-node cycle subtraction — plus the sanctioned forms:
// same-domain arithmetic and untainted operands.
package fix

import "csbsim/internal/sim"

type node struct{ M *sim.Machine }

type pair struct{ a, b *node }

// now is a cycle-returning helper: calls to it are clock sources keyed
// by the call site's receiver.
func (n *node) now() uint64 { return n.M.Cycle() }

func skew(p *pair) uint64 {
	return p.a.M.Cycle() - p.b.M.Cycle() // want `clock domains \(p.a.M vs p.b.M\) combined without alignment`
}

func viaLocals(p *pair) uint64 {
	ta := p.a.M.Cycle()
	tb := p.b.M.Cycle()
	if ta > tb { // want `clock domains \(p.a.M vs p.b.M\) combined without alignment`
		return ta - tb // want `p.a.M vs p.b.M`
	}
	return 0
}

func viaHelper(p *pair) uint64 {
	return p.a.now() - p.b.now() // want `clock domains \(p.a vs p.b\)`
}

// sameDomain arithmetic is always fine.
func sameDomain(n *node) uint64 {
	t0 := n.M.Cycle()
	return n.M.Cycle() - t0
}

// untainted operands (plain numbers, fields) never report.
func relative(n *node, deadline uint64) bool {
	return n.M.Cycle()+100 > deadline
}
