package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/mem"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
)

// sampleRecording writes a cluster-shaped recording: two nodes whose NICs
// send k² packets by the end of window k, and a cluster source with one
// load-generator client. It returns the whole file and the offset of its
// footer frame.
func sampleRecording(t *testing.T) ([]byte, int) {
	t.Helper()
	r, err := rec.New(rec.Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	var k uint64
	for i, node := range []string{"n0", "n1"} {
		reg := counters.NewRegistry()
		scale := uint64(i + 1)
		reg.Counter("dev0/packets_sent", func() uint64 { return scale * k * k })
		reg.Gauge("dev0/rx_pending", func() uint64 { return k % 3 })
		reg.Counter("cluster/rx_highwater", func() uint64 { return 2 * k })
		if err := r.AddSource(node, reg); err != nil {
			t.Fatal(err)
		}
	}
	creg := counters.NewRegistry()
	creg.Counter("loadgen/n1/issued", func() uint64 { return 4 * k })
	lat := creg.Histogram("loadgen/n1/latency")
	if err := r.AddSource("cluster", creg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	for k = 1; k <= 4; k++ {
		lat.Record(100 * k)
		r.Roll(100 * k)
	}
	footer := buf.Len()
	r.Flush(400)
	return buf.Bytes(), footer
}

// fastPoll makes followers re-read appended frames every millisecond.
func fastPoll(t *testing.T) {
	old := pollEvery
	pollEvery = time.Millisecond
	t.Cleanup(func() { pollEvery = old })
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAtShowsWindowDelta: -at renders one window with its own counter
// deltas, not zeros.
func TestAtShowsWindowDelta(t *testing.T) {
	data, _ := sampleRecording(t)
	path := writeFile(t, data)
	var out bytes.Buffer
	if err := follow(&out, path, view{atSet: true, at: 250}); err != nil {
		t.Fatal(err)
	}
	// Window 3 covers (200,300]: n0 has sent 9 packets, 5 of them in it;
	// n1 twice that.
	for _, want := range []string{"window 3  cycles 200..300", "n0                    9        5", "n1                   18       10"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-at output lacks %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "csbrec top — "); n != 1 {
		t.Errorf("-at rendered %d windows, want 1", n)
	}
}

// TestFollowChunkedMatchesFinished: following a recording while a writer
// appends it in arbitrary chunks renders exactly what the finished file
// does.
func TestFollowChunkedMatchesFinished(t *testing.T) {
	fastPoll(t)
	data, _ := sampleRecording(t)
	var want bytes.Buffer
	finished := writeFile(t, data)
	if err := follow(&want, finished, view{plain: true}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(want.String(), "csbrec top — "); n != 4 {
		t.Fatalf("finished file rendered %d windows, want 4", n)
	}

	path := writeFile(t, nil)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	go func() {
		rng := rand.New(rand.NewSource(1))
		for rest := data; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(97))
			f.Write(rest[:n])
			rest = rest[n:]
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var got bytes.Buffer
	if err := follow(&got, path, view{plain: true}); err != nil {
		t.Fatal(err)
	}
	if strings.ReplaceAll(got.String(), path, "run.rec") != strings.ReplaceAll(want.String(), finished, "run.rec") {
		t.Errorf("followed render differs from the finished file's:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestFollowStopsAtFooter: a recording without a footer is followed
// until the footer arrives, and not a moment longer.
func TestFollowStopsAtFooter(t *testing.T) {
	fastPoll(t)
	data, footer := sampleRecording(t)
	path := writeFile(t, data[:footer])
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() { done <- follow(&out, path, view{plain: true}) }()
	select {
	case err := <-done:
		t.Fatalf("follow returned before the footer: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data[footer:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow did not stop at the footer")
	}
	if n := strings.Count(out.String(), "csbrec top — "); n != 4 {
		t.Errorf("rendered %d windows, want 4", n)
	}
}

// TestE2EPanelCountsRunAndWindow: on a traced cluster recording the e2e
// panel's n counts the packets completed over the run so far and Δ the
// window's own, so each window's n is the running sum of the Δs.
func TestE2EPanelCountsRunAndWindow(t *testing.T) {
	c, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ping, pong := bench.PingPongPrograms(bench.SendCSB, 20)
	for i, src := range []string{ping, pong} {
		n := c.Node(i)
		n.MapIO(true)
		n.M.MapRange(0x200000, 1<<16, mem.KindCached)
		if _, err := n.M.LoadSource(n.Name()+".s", src); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := c.AttachTrace()
	if err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10_000_000, false); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := follow(&out, writeFile(t, buf.Bytes()), view{plain: true}); err != nil {
		t.Fatal(err)
	}
	var sum, n, delta, windows uint64
	for _, line := range strings.Split(out.String(), "\n") {
		i := strings.Index(line, "(n=")
		if !strings.HasPrefix(line, "e2e latency:") || i < 0 {
			continue
		}
		if _, err := fmt.Sscanf(line[i:], "(n=%d, Δ%d)", &n, &delta); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		sum += delta
		windows++
		if n != sum {
			t.Errorf("window %d: n=%d, but its Δs sum to %d", windows, n, sum)
		}
	}
	if _, completed, _ := tr.Counts(journey.KindWire); windows < 3 || n != completed || n == 0 {
		t.Errorf("%d e2e panels ending at n=%d, want several ending at the %d packets completed", windows, n, completed)
	}
}
