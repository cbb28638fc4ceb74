package mem

import (
	"fmt"
	"sort"
)

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

// Region is a claimed physical address range.
type Region struct {
	Base uint64
	Size uint64
	Name string
	T    Target
}

func (r Region) contains(pa uint64) bool { return pa >= r.Base && pa < r.Base+r.Size }

// Router directs physical accesses to main memory or registered device
// regions. It is the bus's view of "everything behind the system
// interface".
type Router struct {
	ram     *Memory
	regions []Region
}

// NewRouter wraps physical memory; device regions are added with Register.
func NewRouter(ram *Memory) *Router {
	return &Router{ram: ram}
}

// Reset drops every registered device region.
func (rt *Router) Reset() {
	clear(rt.regions)
	rt.regions = rt.regions[:0]
}

// RAM returns the underlying physical memory.
func (rt *Router) RAM() *Memory { return rt.ram }

// Register claims a physical range for a device. Ranges must not overlap.
func (rt *Router) Register(base, size uint64, name string, t Target) error {
	nr := Region{Base: base, Size: size, Name: name, T: t}
	for _, r := range rt.regions {
		if nr.Base < r.Base+r.Size && r.Base < nr.Base+nr.Size {
			return fmt.Errorf("mem: region %q overlaps %q", name, r.Name)
		}
	}
	rt.regions = append(rt.regions, nr)
	sort.Slice(rt.regions, func(i, j int) bool { return rt.regions[i].Base < rt.regions[j].Base })
	return nil
}

// Resolve returns the target responsible for pa (main memory when no device
// claims it).
func (rt *Router) Resolve(pa uint64) Target {
	for _, r := range rt.regions {
		if r.contains(pa) {
			return r.T
		}
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

// Regions returns the registered device regions (sorted by base).
func (rt *Router) Regions() []Region {
	out := make([]Region, len(rt.regions))
	copy(out, rt.regions)
	return out
}
