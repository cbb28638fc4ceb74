// Machine-level fault-injection wiring: AttachFaults threads one
// deterministic injector through every component that can refuse, delay
// or drop work — the bus (transaction NACKs), the CSB (capacity pressure,
// delayed and dropped flush acknowledgements), the uncached buffer
// (capacity pressure) and the NIC (latency bursts, FIFO backpressure
// windows). The simulator is single-threaded, so decisions are consumed
// in a deterministic order: the same seed, configuration and guest
// program reproduce a run bit-identically, report included.
package sim

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/fault"
)

// AttachFaults installs a deterministic fault injector across the whole
// machine, the NIC included. Attach before running. The returned
// injector exposes the injection counters, which also appear in
// Stats().Faults and the Report output.
func (m *Machine) AttachFaults(cfg fault.Config) (*fault.Injector, error) {
	if m.faults != nil {
		return nil, fmt.Errorf("sim: fault injector already attached")
	}
	inj, err := fault.New(cfg)
	if err != nil {
		return nil, err
	}
	m.endCoast()
	m.faults = inj
	m.Bus.SetNackHook(func(*bus.Txn) bool { return inj.NackBus() })
	m.CSB.SetFaultHooks(inj.SqueezeCSB, inj.FlushDelay, inj.DropFlush)
	m.UB.SetFaultHook(inj.SqueezeUB)
	if m.nic != nil {
		m.nic.SetFaultHooks(inj.DeviceStall, inj.Backpressure)
	}
	return inj, nil
}

// Faults returns the attached injector, or nil.
func (m *Machine) Faults() *fault.Injector { return m.faults }

// deviceErr returns the NIC's recorded out-of-range guest access, if
// any, wrapped with the cycle it was noticed at (errors.As still reaches
// the typed cause).
func (m *Machine) deviceErr() error {
	if m.nic == nil || m.nic.Err() == nil {
		return nil
	}
	return fmt.Errorf("sim: at cycle %d: %w", m.cycle, m.nic.Err())
}
