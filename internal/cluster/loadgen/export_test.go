package loadgen

import "csbsim/internal/cluster"

// stepEveryCycle drops g's wake function, so the cluster calls its hook
// every cycle and never jumps its node past one: the reference
// TestServeJumpIdentity holds the wakes to.
func (g *Generator) stepEveryCycle(c *cluster.Cluster) { c.SetNodeWake(g.self, nil) }
