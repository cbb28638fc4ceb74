package mem

// Target is anything reachable by physical address over the system bus:
// main memory or a memory-mapped device. Burst writes are how the CSB and
// the combining uncached buffer deliver multi-word transactions (§3.3 notes
// the target device must accept burst writes; our NIC does).
type Target interface {
	// ReadTarget fills dst with the len(dst) bytes starting at pa. The
	// caller owns dst, so a read allocates nothing.
	ReadTarget(pa uint64, dst []byte)
	// WriteTarget stores data at pa. Called for both single-beat and
	// burst transactions.
	WriteTarget(pa uint64, data []byte)
}

// ramTarget adapts Memory to the Target interface.
type ramTarget struct{ m *Memory }

func (r ramTarget) ReadTarget(pa uint64, dst []byte) { r.m.Read(pa, dst) }

func (r ramTarget) WriteTarget(pa uint64, data []byte) { r.m.Write(pa, data) }

// Router directs physical accesses to main memory or to the one device
// window: the bus's view of "everything behind the system interface".
type Router struct {
	ram *Memory
	// dev claims [devBase, devBase+devSize); nil when no device is mapped.
	dev     Target
	devBase uint64
	devSize uint64
}

// NewRouter wraps physical memory; the device window is set with
// SetDevice.
func NewRouter(ram *Memory) *Router {
	return &Router{ram: ram}
}

// RAM returns the underlying physical memory.
func (rt *Router) RAM() *Memory { return rt.ram }

// SetDevice claims [base, base+size) for dev, replacing the window set
// before; a nil dev leaves every address to main memory.
func (rt *Router) SetDevice(base, size uint64, dev Target) {
	rt.dev, rt.devBase, rt.devSize = dev, base, size
}

// Resolve returns the target responsible for pa: the device when its
// window holds pa, main memory otherwise.
func (rt *Router) Resolve(pa uint64) Target {
	if rt.dev != nil && pa-rt.devBase < rt.devSize {
		return rt.dev
	}
	return ramTarget{rt.ram}
}

// Read fills dst with the bytes at pa from whichever target owns the
// address.
func (rt *Router) Read(pa uint64, dst []byte) {
	rt.Resolve(pa).ReadTarget(pa, dst)
}

// Write stores data at pa via whichever target owns the address.
func (rt *Router) Write(pa uint64, data []byte) {
	rt.Resolve(pa).WriteTarget(pa, data)
}
