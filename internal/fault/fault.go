// Package fault is the deterministic fault-injection layer of the
// simulator. The paper's CSB protocol is fundamentally a recovery
// protocol — software must check the conditional-flush result and retry,
// and membar-ordered uncached accesses must survive device-side delays —
// yet a simulator that only ever exercises the happy path never proves
// any of that recovery code works. This package supplies seed-driven
// fault schedules that the machine threads through the bus, the
// conditional store buffer, the uncached buffer and the devices:
//
//   - bus transaction NACK/retry (the agent's TryIssue is refused and it
//     must re-arbitrate, exactly as on a real bus under contention);
//   - device latency bursts (the NIC freezes for a bounded window,
//     delaying DMA, transmission and interrupts);
//   - NIC FIFO backpressure windows (descriptor pushes are refused and
//     the status register advertises a full FIFO);
//   - dropped or delayed conditional-flush acknowledgements (the flush
//     stalls, or reports failure and software re-runs the sequence);
//   - CSB and uncached-buffer capacity pressure (stores are refused and
//     the retire stage retries).
//
// Beyond the single machine, the same injector serves the cluster fabric
// (internal/cluster): wire-scope classes drop, duplicate or delay routed
// packets and open whole-link outage windows. Cluster injection happens
// exclusively at the windowed engine's single-threaded barrier, in the
// deterministic (pump cycle, node index, push order) routing order, so
// the parallel engine stays byte-identical to its sequential reference
// under any fault seed.
//
// Every decision comes from a hand-rolled seeded xorshift PRNG — no
// math/rand, so the determinism analyzer holds for this package too —
// and the same seed plus configuration yields a bit-identical fault
// schedule, which in turn keeps full-machine reports byte-identical
// across runs. A failing FuzzFaultRecovery input (internal/sim) is
// reproduced by replaying its seed.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RateScale is the denominator of all fault rates: a rate of r means an
// r-in-1024 chance at each opportunity. Integer rates keep the schedule
// exactly reproducible (no floating point).
const RateScale = 1024

// PRNG is a seeded xorshift64* generator. It is deliberately hand-rolled:
// the simulation core bans math/rand (see internal/analysis/determinism),
// and this keeps the fault schedule a pure function of the seed.
type PRNG struct {
	s uint64
}

// NewPRNG returns a generator for the seed (seed 0 is remapped to a
// fixed non-zero state; xorshift has no escape from all-zero).
func NewPRNG(seed uint64) PRNG {
	p := PRNG{s: seed}
	if p.s == 0 {
		p.s = 0x9E3779B97F4A7C15 // golden-ratio constant, arbitrary non-zero
	}
	// Warm up: decorrelates small consecutive seeds.
	p.Uint64()
	p.Uint64()
	return p
}

// Uint64 advances the generator (xorshift64 followed by the * multiply
// of Vigna's xorshift64star, whose high bits are well distributed).
//
//csb:hotpath
func (p *PRNG) Uint64() uint64 {
	s := p.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	p.s = s
	return s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). n must be positive.
//
//csb:hotpath
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("fault: Intn with non-positive n")
	}
	// Multiply-shift range reduction over the high 32 bits: no modulo
	// bias worth caring about for fault scheduling, and no division.
	return int((p.Uint64() >> 32) * uint64(n) >> 32)
}

// chance reports true with probability rate/RateScale, consuming exactly
// one draw. rate 0 must be filtered by the caller (it would still burn a
// draw here).
//
//csb:hotpath
func (p *PRNG) chance(rate int) bool {
	return p.Uint64()>>54 < uint64(rate) // top 10 bits: uniform in [0,1024)
}

// Config enables and tunes the individual fault classes. All rates are
// per-RateScale probabilities (0 disables the class, RateScale fires at
// every opportunity); the Max fields bound the length of injected
// windows, drawn uniformly from [1, Max].
type Config struct {
	// Seed selects the schedule. The same seed and config reproduce the
	// same run bit-identically.
	Seed uint64

	// BusNack refuses an otherwise-accepted bus transaction; the issuing
	// agent re-arbitrates on a later bus cycle.
	BusNack int
	// DeviceStall freezes a device for a burst of [1, DeviceStallMax]
	// bus cycles, delaying DMA, transmission and interrupt delivery.
	DeviceStall    int
	DeviceStallMax int
	// NICBackpressure opens a window of [1, NICBackpressureMax] bus
	// cycles during which the NIC's descriptor FIFO refuses pushes and
	// advertises itself full in the status register.
	NICBackpressure    int
	NICBackpressureMax int
	// FlushDelay delays a conditional-flush acknowledgement: the flush
	// instruction stalls at the head of the ROB for an extra
	// [1, FlushDelayMax] attempts before the CSB answers.
	FlushDelay    int
	FlushDelayMax int
	// FlushDrop drops the acknowledgement of a would-succeed conditional
	// flush: the CSB reports failure, commits nothing, and software must
	// re-run the store sequence (the paper's §3.2 retry loop).
	FlushDrop int
	// CSBPressure refuses a combining store (the retire stage retries
	// next cycle), modeling capacity pressure on the line buffer.
	CSBPressure int
	// UBPressure makes the uncached buffer report itself full for one
	// store or load attempt.
	UBPressure int

	// ---- cluster-scope wire classes (consumed by internal/cluster at
	// the routing barrier; ignored by the single-machine wiring) ----

	// WireDrop silently drops a routed packet on the wire.
	WireDrop int
	// WireDup delivers a routed packet twice: the duplicate is scheduled
	// behind the original through the same serialization front, modeling
	// a link-layer retransmission whose original was not actually lost.
	WireDup int
	// WireDelay adds [1, WireDelayMax] extra propagation cycles to a
	// routed packet (transient congestion beyond the fixed link latency).
	WireDelay    int
	WireDelayMax int
	// LinkOutage opens a window of [1, LinkOutageMax] cluster cycles
	// during which a link drops every packet scheduled onto it (cable
	// pull / switch reset). Checked per link, at most one window open per
	// link at a time.
	LinkOutage    int
	LinkOutageMax int
}

// DefaultConfig is the standard campaign mix: every class enabled at a
// rate that injects frequently enough to exercise all recovery paths in
// a few thousand cycles without livelocking the guest.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		BusNack:            48,
		DeviceStall:        16,
		DeviceStallMax:     64,
		NICBackpressure:    16,
		NICBackpressureMax: 48,
		FlushDelay:         32,
		FlushDelayMax:      24,
		FlushDrop:          64,
		CSBPressure:        32,
		UBPressure:         32,
	}
}

// DefaultWireConfig is the standard cluster campaign mix: wire classes
// only, at rates calibrated so a retry-enabled serving workload recovers
// every request (the goodput-under-faults acceptance envelope) while
// still exercising drop, duplicate, delay and outage paths within a few
// hundred kcycles.
func DefaultWireConfig() Config {
	return Config{
		Seed:          1,
		WireDrop:      8,
		WireDup:       4,
		WireDelay:     16,
		WireDelayMax:  300,
		LinkOutage:    2,
		LinkOutageMax: 1200,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    int
	}{
		{"BusNack", c.BusNack},
		{"DeviceStall", c.DeviceStall},
		{"NICBackpressure", c.NICBackpressure},
		{"FlushDelay", c.FlushDelay},
		{"FlushDrop", c.FlushDrop},
		{"CSBPressure", c.CSBPressure},
		{"UBPressure", c.UBPressure},
		{"WireDrop", c.WireDrop},
		{"WireDup", c.WireDup},
		{"WireDelay", c.WireDelay},
		{"LinkOutage", c.LinkOutage},
	} {
		if r.v < 0 || r.v > RateScale {
			return fmt.Errorf("fault: %s rate %d outside [0, %d]", r.name, r.v, RateScale)
		}
	}
	if c.DeviceStall > 0 && c.DeviceStallMax <= 0 {
		return fmt.Errorf("fault: DeviceStall enabled with DeviceStallMax %d", c.DeviceStallMax)
	}
	if c.NICBackpressure > 0 && c.NICBackpressureMax <= 0 {
		return fmt.Errorf("fault: NICBackpressure enabled with NICBackpressureMax %d", c.NICBackpressureMax)
	}
	if c.FlushDelay > 0 && c.FlushDelayMax <= 0 {
		return fmt.Errorf("fault: FlushDelay enabled with FlushDelayMax %d", c.FlushDelayMax)
	}
	if c.WireDelay > 0 && c.WireDelayMax <= 0 {
		return fmt.Errorf("fault: WireDelay enabled with WireDelayMax %d", c.WireDelayMax)
	}
	if c.LinkOutage > 0 && c.LinkOutageMax <= 0 {
		return fmt.Errorf("fault: LinkOutage enabled with LinkOutageMax %d", c.LinkOutageMax)
	}
	return nil
}

// Enabled reports whether any fault class has a non-zero rate.
func (c Config) Enabled() bool {
	return c.BusNack > 0 || c.DeviceStall > 0 || c.NICBackpressure > 0 ||
		c.FlushDelay > 0 || c.FlushDrop > 0 || c.CSBPressure > 0 || c.UBPressure > 0 ||
		c.WireEnabled()
}

// WireEnabled reports whether any cluster-scope wire class has a
// non-zero rate.
func (c Config) WireEnabled() bool {
	return c.WireDrop > 0 || c.WireDup > 0 || c.WireDelay > 0 || c.LinkOutage > 0
}

// Stats counts what the injector actually did. Seed is carried along so
// a report names everything needed to reproduce the run.
type Stats struct {
	Seed                uint64
	Draws               uint64 // PRNG draws consumed
	BusNacks            uint64 // bus transactions refused
	DeviceStalls        uint64 // latency bursts started
	DeviceStallCycles   uint64 // total injected device-stall cycles
	BackpressureWindows uint64 // FIFO backpressure windows opened
	BackpressureCycles  uint64 // total backpressure window cycles
	FlushDelays         uint64 // conditional-flush acks delayed
	FlushDrops          uint64 // would-succeed flushes failed
	CSBPressureStalls   uint64 // combining stores refused
	UBPressureStalls    uint64 // uncached buffer accepts refused

	// Cluster-scope wire classes (zero on machine-level injectors).
	WireDrops       uint64 `json:",omitempty"` // packets dropped on the wire
	WireDups        uint64 `json:",omitempty"` // packets delivered twice
	WireDelays      uint64 `json:",omitempty"` // packets given extra propagation delay
	WireDelayCycles uint64 `json:",omitempty"` // total extra propagation cycles injected
	OutageWindows   uint64 `json:",omitempty"` // link outage windows opened
	OutageCycles    uint64 `json:",omitempty"` // total link outage window cycles
}

// Total returns the number of injected fault events (windows count once).
func (s Stats) Total() uint64 {
	return s.BusNacks + s.DeviceStalls + s.BackpressureWindows +
		s.FlushDelays + s.FlushDrops + s.CSBPressureStalls + s.UBPressureStalls +
		s.WireTotal()
}

// WireTotal returns the number of injected wire fault events (outage
// windows count once; the per-packet drops inside them are counted by the
// cluster as cluster/outage_drops).
func (s Stats) WireTotal() uint64 {
	return s.WireDrops + s.WireDups + s.WireDelays + s.OutageWindows
}

// Injector draws the fault schedule. One injector serves one machine; the
// simulator is single-threaded, so decisions are consumed in a
// deterministic order and the whole schedule is a function of (seed,
// config, guest program).
type Injector struct {
	cfg   Config
	rng   PRNG
	stats Stats
}

// New creates an injector.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, rng: NewPRNG(cfg.Seed), stats: Stats{Seed: cfg.Seed}}, nil
}

// Config returns the injector's configuration.
func (i *Injector) Config() Config { return i.cfg }

// Stats snapshots the injection counters.
func (i *Injector) Stats() Stats { return i.stats }

// NackBus decides whether to refuse the current bus transaction. Wired
// into bus.Bus via SetNackHook; a refused agent re-arbitrates later.
//
//csb:hotpath
func (i *Injector) NackBus() bool {
	if i.cfg.BusNack == 0 {
		return false
	}
	i.stats.Draws++
	if i.rng.chance(i.cfg.BusNack) {
		i.stats.BusNacks++
		return true
	}
	return false
}

// DeviceStall returns the length of a device latency burst to inject (0:
// none). Called once per device tick while the device is not already
// stalled.
//
//csb:hotpath
func (i *Injector) DeviceStall() int {
	if i.cfg.DeviceStall == 0 {
		return 0
	}
	i.stats.Draws++
	if !i.rng.chance(i.cfg.DeviceStall) {
		return 0
	}
	i.stats.Draws++
	n := 1 + i.rng.Intn(i.cfg.DeviceStallMax)
	i.stats.DeviceStalls++
	i.stats.DeviceStallCycles += uint64(n)
	return n
}

// Backpressure returns the length of a FIFO backpressure window to open
// (0: none). Called once per device tick while no window is open.
//
//csb:hotpath
func (i *Injector) Backpressure() int {
	if i.cfg.NICBackpressure == 0 {
		return 0
	}
	i.stats.Draws++
	if !i.rng.chance(i.cfg.NICBackpressure) {
		return 0
	}
	i.stats.Draws++
	n := 1 + i.rng.Intn(i.cfg.NICBackpressureMax)
	i.stats.BackpressureWindows++
	i.stats.BackpressureCycles += uint64(n)
	return n
}

// FlushDelay returns how many extra attempts a conditional-flush
// acknowledgement is delayed (0: answer immediately).
//
//csb:hotpath
func (i *Injector) FlushDelay() int {
	if i.cfg.FlushDelay == 0 {
		return 0
	}
	i.stats.Draws++
	if !i.rng.chance(i.cfg.FlushDelay) {
		return 0
	}
	i.stats.Draws++
	n := 1 + i.rng.Intn(i.cfg.FlushDelayMax)
	i.stats.FlushDelays++
	return n
}

// DropFlush decides whether to drop the acknowledgement of a
// would-succeed conditional flush (reported to software as a failure).
//
//csb:hotpath
func (i *Injector) DropFlush() bool {
	if i.cfg.FlushDrop == 0 {
		return false
	}
	i.stats.Draws++
	if i.rng.chance(i.cfg.FlushDrop) {
		i.stats.FlushDrops++
		return true
	}
	return false
}

// SqueezeCSB decides whether to refuse a combining store this cycle.
//
//csb:hotpath
func (i *Injector) SqueezeCSB() bool {
	if i.cfg.CSBPressure == 0 {
		return false
	}
	i.stats.Draws++
	if i.rng.chance(i.cfg.CSBPressure) {
		i.stats.CSBPressureStalls++
		return true
	}
	return false
}

// SqueezeUB decides whether the uncached buffer refuses an accept this
// cycle.
//
//csb:hotpath
func (i *Injector) SqueezeUB() bool {
	if i.cfg.UBPressure == 0 {
		return false
	}
	i.stats.Draws++
	if i.rng.chance(i.cfg.UBPressure) {
		i.stats.UBPressureStalls++
		return true
	}
	return false
}

// ---- cluster-scope wire decisions (called only at the routing barrier,
// single-threaded, in the deterministic global routing order) ----

// DropPacket decides whether to drop the packet being routed.
//
//csb:hotpath
func (i *Injector) DropPacket() bool {
	if i.cfg.WireDrop == 0 {
		return false
	}
	i.stats.Draws++
	if i.rng.chance(i.cfg.WireDrop) {
		i.stats.WireDrops++
		return true
	}
	return false
}

// DupPacket decides whether to deliver the packet being routed twice.
//
//csb:hotpath
func (i *Injector) DupPacket() bool {
	if i.cfg.WireDup == 0 {
		return false
	}
	i.stats.Draws++
	if i.rng.chance(i.cfg.WireDup) {
		i.stats.WireDups++
		return true
	}
	return false
}

// PacketDelay returns extra propagation cycles to add to the packet being
// routed (0: none).
//
//csb:hotpath
func (i *Injector) PacketDelay() int {
	if i.cfg.WireDelay == 0 {
		return 0
	}
	i.stats.Draws++
	if !i.rng.chance(i.cfg.WireDelay) {
		return 0
	}
	i.stats.Draws++
	n := 1 + i.rng.Intn(i.cfg.WireDelayMax)
	i.stats.WireDelays++
	i.stats.WireDelayCycles += uint64(n)
	return n
}

// LinkOutage returns the length of a link outage window to open (0:
// none). Called once per routed packet on links with no window open.
//
//csb:hotpath
func (i *Injector) LinkOutage() int {
	if i.cfg.LinkOutage == 0 {
		return 0
	}
	i.stats.Draws++
	if !i.rng.chance(i.cfg.LinkOutage) {
		return 0
	}
	i.stats.Draws++
	n := 1 + i.rng.Intn(i.cfg.LinkOutageMax)
	i.stats.OutageWindows++
	i.stats.OutageCycles += uint64(n)
	return n
}

// specKeys maps spec-string keys to Config fields. Kept in one table so
// ParseSpec and the key list SpecKeys prints cannot drift apart.
var specKeys = []struct {
	key string
	get func(*Config) *int
}{
	{"busnack", func(c *Config) *int { return &c.BusNack }},
	{"devstall", func(c *Config) *int { return &c.DeviceStall }},
	{"devstallmax", func(c *Config) *int { return &c.DeviceStallMax }},
	{"backpressure", func(c *Config) *int { return &c.NICBackpressure }},
	{"bpmax", func(c *Config) *int { return &c.NICBackpressureMax }},
	{"flushdelay", func(c *Config) *int { return &c.FlushDelay }},
	{"flushdelaymax", func(c *Config) *int { return &c.FlushDelayMax }},
	{"flushdrop", func(c *Config) *int { return &c.FlushDrop }},
	{"csbpressure", func(c *Config) *int { return &c.CSBPressure }},
	{"ubpressure", func(c *Config) *int { return &c.UBPressure }},
	{"wiredrop", func(c *Config) *int { return &c.WireDrop }},
	{"wiredup", func(c *Config) *int { return &c.WireDup }},
	{"wiredelay", func(c *Config) *int { return &c.WireDelay }},
	{"wiredelaymax", func(c *Config) *int { return &c.WireDelayMax }},
	{"outage", func(c *Config) *int { return &c.LinkOutage }},
	{"outagemax", func(c *Config) *int { return &c.LinkOutageMax }},
}

// ParseSpec parses a command-line fault specification: a comma-separated
// list of key=value pairs, plus the bare tokens "default" (mixes in
// DefaultConfig's machine classes) and "wire" (mixes in
// DefaultWireConfig's cluster classes, leaving machine classes as set).
// Unnamed classes stay disabled, so "busnack=1024" enables exactly one
// fault class. Window maxima default sensibly when a rate is enabled
// without one. Examples:
//
//	default
//	default,seed=7
//	busnack=64,flushdrop=128,seed=3
//	wire,seed=11
//	wiredrop=32,outage=4,outagemax=2000
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "default" || part == "on" {
			seed := cfg.Seed
			wire := cfg // wire classes possibly set by an earlier "wire" token
			def := DefaultConfig()
			def.Seed = seed
			def.WireDrop = wire.WireDrop
			def.WireDup = wire.WireDup
			def.WireDelay = wire.WireDelay
			def.WireDelayMax = wire.WireDelayMax
			def.LinkOutage = wire.LinkOutage
			def.LinkOutageMax = wire.LinkOutageMax
			cfg = def
			continue
		}
		if part == "wire" {
			w := DefaultWireConfig()
			cfg.WireDrop = w.WireDrop
			cfg.WireDup = w.WireDup
			cfg.WireDelay = w.WireDelay
			cfg.WireDelayMax = w.WireDelayMax
			cfg.LinkOutage = w.LinkOutage
			cfg.LinkOutageMax = w.LinkOutageMax
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: bad spec element %q (want key=value or \"default\"); known keys: %s",
				part, strings.Join(SpecKeys(), ", "))
		}
		if k == "seed" {
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad seed %q", v)
			}
			cfg.Seed = n
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Config{}, fmt.Errorf("fault: bad value %q for %q", v, k)
		}
		found := false
		for _, sk := range specKeys {
			if sk.key == k {
				*sk.get(&cfg) = n
				found = true
				break
			}
		}
		if !found {
			return Config{}, fmt.Errorf("fault: unknown spec key %q; known keys: seed, %s",
				k, strings.Join(SpecKeys(), ", "))
		}
	}
	// Fill window maxima for classes enabled without one.
	def := DefaultConfig()
	wdef := DefaultWireConfig()
	if cfg.DeviceStall > 0 && cfg.DeviceStallMax == 0 {
		cfg.DeviceStallMax = def.DeviceStallMax
	}
	if cfg.NICBackpressure > 0 && cfg.NICBackpressureMax == 0 {
		cfg.NICBackpressureMax = def.NICBackpressureMax
	}
	if cfg.FlushDelay > 0 && cfg.FlushDelayMax == 0 {
		cfg.FlushDelayMax = def.FlushDelayMax
	}
	if cfg.WireDelay > 0 && cfg.WireDelayMax == 0 {
		cfg.WireDelayMax = wdef.WireDelayMax
	}
	if cfg.LinkOutage > 0 && cfg.LinkOutageMax == 0 {
		cfg.LinkOutageMax = wdef.LinkOutageMax
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SpecKeys lists the recognized spec keys (sorted, for error messages and
// usage strings).
func SpecKeys() []string {
	keys := make([]string, 0, len(specKeys))
	for _, sk := range specKeys {
		keys = append(keys, sk.key)
	}
	sort.Strings(keys)
	return keys
}
