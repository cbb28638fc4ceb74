package noretain_test

import (
	"testing"

	"csbsim/internal/analysis/antest"
	"csbsim/internal/analysis/noretain"
)

func TestTxnRetention(t *testing.T) {
	antest.Run(t, noretain.Analyzer, "testdata/txn",
		"csbsim/internal/analysis/noretain/fixture")
}

// TestLocalPooledType registers a fixture-local unexported type in
// PooledTypes, the same mechanism that covers cpu.uop.
func TestLocalPooledType(t *testing.T) {
	const key = "csbsim/internal/analysis/noretain/fixlocal.snap"
	noretain.PooledTypes[key] = true
	defer delete(noretain.PooledTypes, key)
	antest.Run(t, noretain.Analyzer, "testdata/local",
		"csbsim/internal/analysis/noretain/fixlocal")
}
