package fault

import (
	"strings"
	"testing"
)

func TestPRNGDeterministic(t *testing.T) {
	a := NewPRNG(42)
	b := NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x", i, x, y)
		}
	}
}

func TestPRNGSeedsDiffer(t *testing.T) {
	a := NewPRNG(1)
	b := NewPRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestPRNGZeroSeed(t *testing.T) {
	p := NewPRNG(0)
	if p.Uint64() == 0 && p.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestIntnRange(t *testing.T) {
	p := NewPRNG(7)
	for i := 0; i < 10000; i++ {
		if v := p.Intn(24); v < 0 || v >= 24 {
			t.Fatalf("Intn(24) = %d out of range", v)
		}
	}
}

func TestChanceBounds(t *testing.T) {
	p := NewPRNG(9)
	for i := 0; i < 1000; i++ {
		if p.chance(0) {
			t.Fatal("rate 0 fired")
		}
	}
	for i := 0; i < 1000; i++ {
		if !p.chance(RateScale) {
			t.Fatal("rate 1024 missed")
		}
	}
}

func TestChanceRoughlyCalibrated(t *testing.T) {
	p := NewPRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.chance(256) { // expect ~25%
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("rate 256/1024 fired %.3f of the time, want ~0.25", frac)
	}
}

func TestInjectorDeterministicSchedule(t *testing.T) {
	run := func() Stats {
		inj, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// A fixed interleaving of decision calls must always yield the
		// same schedule and counters.
		for i := 0; i < 5000; i++ {
			inj.NackBus()
			if i%3 == 0 {
				inj.DeviceStall()
				inj.Backpressure()
			}
			if i%5 == 0 {
				inj.FlushDelay()
				inj.DropFlush()
			}
			inj.SqueezeCSB()
			inj.SqueezeUB()
		}
		return inj.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("default config injected nothing over 5000 opportunities")
	}
}

func TestInjectorDisabledClassesDrawNothing(t *testing.T) {
	inj, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if inj.NackBus() || inj.DropFlush() || inj.SqueezeCSB() || inj.SqueezeUB() {
			t.Fatal("disabled class fired")
		}
		if inj.DeviceStall() != 0 || inj.Backpressure() != 0 || inj.FlushDelay() != 0 {
			t.Fatal("disabled window class fired")
		}
	}
	if s := inj.Stats(); s.Draws != 0 {
		t.Fatalf("disabled classes consumed %d draws", s.Draws)
	}
}

func TestWindowLengthsBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeviceStall = RateScale
	cfg.NICBackpressure = RateScale
	cfg.FlushDelay = RateScale
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if n := inj.DeviceStall(); n < 1 || n > cfg.DeviceStallMax {
			t.Fatalf("device stall %d outside [1, %d]", n, cfg.DeviceStallMax)
		}
		if n := inj.Backpressure(); n < 1 || n > cfg.NICBackpressureMax {
			t.Fatalf("backpressure window %d outside [1, %d]", n, cfg.NICBackpressureMax)
		}
		if n := inj.FlushDelay(); n < 1 || n > cfg.FlushDelayMax {
			t.Fatalf("flush delay %d outside [1, %d]", n, cfg.FlushDelayMax)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{BusNack: -1},
		{BusNack: RateScale + 1},
		{FlushDrop: 99999},
		{DeviceStall: 8},     // enabled without a max
		{NICBackpressure: 8}, // enabled without a max
		{FlushDelay: 8},      // enabled without a max
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != DefaultConfig() {
		t.Fatalf("spec \"default\" = %+v, want DefaultConfig", cfg)
	}

	cfg, err = ParseSpec("default,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Seed = 7
	if cfg != want {
		t.Fatalf("spec \"default,seed=7\" = %+v, want %+v", cfg, want)
	}

	// seed before "default" survives the mix-in.
	cfg, err = ParseSpec("seed=9,default")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 {
		t.Fatalf("seed=9,default lost the seed: %+v", cfg)
	}

	cfg, err = ParseSpec("busnack=1024")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BusNack != 1024 || cfg.Enabled() != true || cfg.FlushDrop != 0 {
		t.Fatalf("single-class spec enabled extra classes: %+v", cfg)
	}

	// A window rate named without its max gets the default max.
	cfg, err = ParseSpec("devstall=8,backpressure=4,flushdelay=2")
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.DeviceStallMax != def.DeviceStallMax ||
		cfg.NICBackpressureMax != def.NICBackpressureMax ||
		cfg.FlushDelayMax != def.FlushDelayMax {
		t.Fatalf("window maxima not defaulted: %+v", cfg)
	}

	for _, bad := range []string{"nope", "bogus=1", "busnack=abc", "seed=xyz", "busnack=2000"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
	if _, err := ParseSpec("bogus=1"); err == nil || !strings.Contains(err.Error(), "busnack") {
		t.Errorf("unknown-key error should list known keys, got %v", err)
	}
}

// TestWireValidate: wire rates obey the [0, RateScale] bound and window
// classes need their maxima, mirroring the machine classes.
func TestWireValidate(t *testing.T) {
	bad := []Config{
		{WireDrop: -1},
		{WireDup: RateScale + 1},
		{WireDelay: 8},  // enabled without a max
		{LinkOutage: 8}, // enabled without a max
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	if err := DefaultWireConfig().Validate(); err != nil {
		t.Errorf("default wire config invalid: %v", err)
	}
	wire := DefaultWireConfig()
	if !wire.WireEnabled() || !wire.Enabled() {
		t.Error("default wire config reports itself disabled")
	}
	if DefaultConfig().WireEnabled() {
		t.Error("machine default config claims wire classes")
	}
}

// TestWireInjectorDisabledDrawsNothing: a machine-class-only injector
// consumes no PRNG draws through the wire decision points, so attaching
// wire accounting cannot perturb an existing machine fault schedule.
func TestWireInjectorDisabledDrawsNothing(t *testing.T) {
	inj, err := New(Config{Seed: 3, BusNack: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if inj.DropPacket() || inj.DupPacket() {
			t.Fatal("disabled wire class fired")
		}
		if inj.PacketDelay() != 0 || inj.LinkOutage() != 0 {
			t.Fatal("disabled wire window class fired")
		}
	}
	if s := inj.Stats(); s.Draws != 0 || s.WireTotal() != 0 {
		t.Fatalf("disabled wire classes consumed draws: %+v", s)
	}
}

// TestWireWindowLengthsBounded: injected delays and outage windows stay
// inside [1, max].
func TestWireWindowLengthsBounded(t *testing.T) {
	cfg := DefaultWireConfig()
	cfg.WireDelay = RateScale
	cfg.LinkOutage = RateScale
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if n := inj.PacketDelay(); n < 1 || n > cfg.WireDelayMax {
			t.Fatalf("packet delay %d outside [1, %d]", n, cfg.WireDelayMax)
		}
		if n := inj.LinkOutage(); n < 1 || n > cfg.LinkOutageMax {
			t.Fatalf("outage window %d outside [1, %d]", n, cfg.LinkOutageMax)
		}
	}
	s := inj.Stats()
	if s.WireDelays != 1000 || s.OutageWindows != 1000 {
		t.Fatalf("always-on wire windows fired %d/%d times", s.WireDelays, s.OutageWindows)
	}
	if s.WireDelayCycles == 0 || s.OutageCycles == 0 || s.WireTotal() != 2000 {
		t.Fatalf("wire accounting off: %+v", s)
	}
}

// TestParseSpecWire covers the "wire" mix-in token, the wire window
// maxima defaulting, and the interplay with "default".
func TestParseSpecWire(t *testing.T) {
	cfg, err := ParseSpec("wire")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != DefaultWireConfig() {
		t.Fatalf("spec \"wire\" = %+v, want DefaultWireConfig", cfg)
	}

	cfg, err = ParseSpec("wire,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultWireConfig()
	want.Seed = 11
	if cfg != want {
		t.Fatalf("spec \"wire,seed=11\" = %+v, want %+v", cfg, want)
	}

	// Wire window rates named without maxima get the wire defaults.
	cfg, err = ParseSpec("wiredelay=8,outage=4")
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultWireConfig()
	if cfg.WireDelayMax != def.WireDelayMax || cfg.LinkOutageMax != def.LinkOutageMax {
		t.Fatalf("wire maxima not defaulted: %+v", cfg)
	}
	if cfg.Enabled() && !cfg.WireEnabled() {
		t.Fatalf("wire-only spec misclassified: %+v", cfg)
	}

	// "default,wire" and "wire,default" both yield the full campaign mix.
	for _, spec := range []string{"default,wire", "wire,default"} {
		cfg, err = ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.BusNack != DefaultConfig().BusNack || cfg.WireDrop != DefaultWireConfig().WireDrop {
			t.Fatalf("spec %q lost a mix-in: %+v", spec, cfg)
		}
	}

	if _, err := ParseSpec("wiredrop=2000"); err == nil {
		t.Error("out-of-range wire rate parsed")
	}
}

func TestStatsSeedCarried(t *testing.T) {
	inj, err := New(Config{Seed: 1234, BusNack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Seed != 1234 {
		t.Fatalf("stats seed = %d", inj.Stats().Seed)
	}
}

// FuzzParseSpec: every spec either fails to parse or yields a Config
// that validates, and an Injector built from it survives 1000 draws of
// every class, each injected window within [1, Max].
func FuzzParseSpec(f *testing.F) {
	f.Add("default,seed=7")
	f.Add("busnack=64,flushdrop=128,seed=3")
	f.Add("wiredrop=32,outage=4,outagemax=2000")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			if cfg != (Config{}) {
				t.Fatalf("ParseSpec(%q) returned %+v with error %v", spec, cfg, err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, which does not validate: %v", spec, cfg, err)
		}
		inj, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		windows := []struct {
			name string
			draw func() int
			max  int
		}{
			{"DeviceStall", inj.DeviceStall, cfg.DeviceStallMax},
			{"Backpressure", inj.Backpressure, cfg.NICBackpressureMax},
			{"FlushDelay", inj.FlushDelay, cfg.FlushDelayMax},
			{"PacketDelay", inj.PacketDelay, cfg.WireDelayMax},
			{"LinkOutage", inj.LinkOutage, cfg.LinkOutageMax},
		}
		events := []func() bool{inj.NackBus, inj.DropFlush, inj.SqueezeCSB, inj.SqueezeUB, inj.DropPacket, inj.DupPacket}
		for range 1000 {
			for _, w := range windows {
				if n := w.draw(); n != 0 && (n < 1 || n > w.max) {
					t.Fatalf("%q: %s window %d outside [1, %d]", spec, w.name, n, w.max)
				}
			}
			for _, ev := range events {
				ev()
			}
		}
	})
}
