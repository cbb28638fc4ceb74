package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/rec"
)

// writeRecording records three windows of a counter that only rises, a
// gauge that falls in the second window, and a histogram, and returns
// the file's path.
func writeRecording(t *testing.T) string {
	t.Helper()
	reg := counters.NewRegistry()
	var sent, depth uint64
	reg.Counter("sent", func() uint64 { return sent })
	reg.Gauge("depth", func() uint64 { return depth })
	lat := reg.Histogram("lat")
	r, err := rec.New(rec.Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	r.Start(0)
	sent, depth = 10, 5
	lat.Record(12)
	r.Roll(100)
	sent, depth = 16, 2
	r.Roll(200)
	sent, depth = 30, 4
	lat.Record(40)
	lat.Record(90)
	r.Flush(250)
	path := filepath.Join(t.TempDir(), "run.rec")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, cmd func([]string, io.Writer) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmd(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestSeriesAndSlice pins how each kind renders: a counter by its
// change, the gauge by its value (end and the range of window-end
// values in series; the value in slice), never by its wrapped delta.
func TestSeriesAndSlice(t *testing.T) {
	path := writeRecording(t)
	if got, want := run(t, cmdSeries, path), ""+
		"gauge dev/depth                                   end=4          min=2 max=5\n"+
		"ctr  dev/sent                                     end=30         delta=30         rate=120.000/kcycle peak_window=14\n"+
		"hist dev/lat                                      n=3        p99=[12..63] worst_window=(200,250]\n"; got != want {
		t.Errorf("series:\n got %q\nwant %q", got, want)
	}
	// A window covers (C0,C1]: -to 200 ends inside (100,200] and must
	// not reach (200,250], which holds no cycle at or before 200.
	want := "" +
		"window 1 (100,200]\n" +
		"  gauge dev/depth                                   value=2\n" +
		"  ctr  dev/sent                                     end=16         delta=6\n" +
		"  hist dev/lat                                      n=0\n"
	for _, to := range []string{"199", "200"} {
		if got := run(t, cmdSlice, "-from", "150", "-to", to, path); got != want {
			t.Errorf("slice -from 150 -to %s:\n got %q\nwant %q", to, got, want)
		}
	}
}

// TestPerfettoPlotsGaugeValues: the gauge's track carries its values
// (5, 2, 4), so no counter event reaches 2^63, where a falling gauge's
// wrapped delta would land.
func TestPerfettoPlotsGaugeValues(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Args struct {
				Value json.Number `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewBufferString(run(t, cmdPerfetto, writeRecording(t))))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var got string
	for _, e := range doc.TraceEvents {
		if e.Ph != "C" {
			continue
		}
		if v, err := strconv.ParseFloat(string(e.Args.Value), 64); err != nil || v >= 1<<63 {
			t.Errorf("%s at %d plots %s", e.Name, e.Ts, e.Args.Value)
		}
		got += e.Name + "@" + strconv.FormatUint(e.Ts, 10) + "=" + string(e.Args.Value) + "\n"
	}
	want := "" +
		"dev/depth@100=5\ndev/sent (delta)@100=10\ndev/lat p99@100=12\n" +
		"dev/depth@200=2\ndev/sent (delta)@200=6\ndev/lat p99@200=0\n" +
		"dev/depth@250=4\ndev/sent (delta)@250=14\ndev/lat p99@250=63\n"
	if got != want {
		t.Errorf("counter tracks:\n got %q\nwant %q", got, want)
	}
}
