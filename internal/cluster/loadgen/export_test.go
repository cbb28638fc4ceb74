package loadgen

import (
	"testing"

	"csbsim/internal/cluster"
	"csbsim/internal/fault"
)

// stepEveryCycle drops g's wake function, so the cluster calls its hook
// every cycle and never jumps its node past one: the reference
// TestServeJumpIdentity holds the wakes to.
func (g *Generator) stepEveryCycle(c *cluster.Cluster) { c.SetNodeWake(g.self, nil) }

// BuildServe builds a starScenario with the clients' wakes on and the
// cross-node trace attached, for the package's external tests.
func BuildServe(t *testing.T, gen Config, edit func(*cluster.Config), faults *fault.Config) (*cluster.Cluster, []*Generator) {
	return starScenario{gen: gen, edit: edit, faults: faults, trace: true}.build(t, true)
}

// Render is render, for the package's external tests.
var Render = render
