// Machine-level fault-injection wiring: AttachFaults threads one
// deterministic injector through every component that can refuse, delay
// or drop work — the bus (transaction NACKs), the CSB (capacity pressure,
// delayed and dropped flush acknowledgements), the uncached buffer
// (capacity pressure) and the devices (latency bursts, FIFO backpressure
// windows). The simulator is single-threaded, so decisions are consumed
// in a deterministic order: the same seed, configuration and guest
// program reproduce a run bit-identically, report included.
package sim

import (
	"fmt"

	"csbsim/internal/bus"
	"csbsim/internal/fault"
)

// deviceFaultTarget is implemented by devices that accept injected
// latency bursts and backpressure windows (device.NIC does).
type deviceFaultTarget interface {
	SetFaultHooks(stall, backpressure func() int)
}

// deviceErrSource is implemented by devices that record out-of-range
// guest accesses (device.NIC does); Run polls it and fails the run with
// the typed error instead of letting the device state rot silently.
type deviceErrSource interface {
	Err() error
}

// AttachFaults installs a deterministic fault injector across the whole
// machine. Attach before running; devices added later (AddDevice) are
// wired automatically. The returned injector exposes the injection
// counters, which also appear in Stats().Faults and the Report output.
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
	for _, d := range m.devices {
		m.wireDeviceFaults(d)
	}
	return inj, nil
}

// Faults returns the attached injector, or nil.
func (m *Machine) Faults() *fault.Injector { return m.faults }

func (m *Machine) wireDeviceFaults(d Device) {
	if t, ok := d.(deviceFaultTarget); ok && m.faults != nil {
		t.SetFaultHooks(m.faults.DeviceStall, m.faults.Backpressure)
	}
}

// deviceErr returns the first recorded device error, wrapped with the
// cycle it was noticed at (errors.As still reaches the typed cause).
func (m *Machine) deviceErr() error {
	for _, fn := range m.errDevices {
		if err := fn(); err != nil {
			return fmt.Errorf("sim: at cycle %d: %w", m.cycle, err)
		}
	}
	return nil
}
