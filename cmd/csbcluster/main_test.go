package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
)

// TestTraceRecordsSpans runs a short traced ping-pong the way
// `csbcluster -trace -record FILE -json` does, under both engines: the
// recording reads clean, holds one wire journey per packet started and
// both nodes' journeys, is the same file under either engine, and its
// footer's cluster/journey/* rows are the hops -json prints.
func TestTraceRecordsSpans(t *testing.T) {
	var recordings [2][]byte
	for i, engine := range []string{"parallel", "seq"} {
		path := filepath.Join(t.TempDir(), "wire.rec")
		o := &options{rounds: 10, send: "csb", wire: 120, engine: engine, maxCycles: 10_000_000,
			trace: true, record: path, recEvery: 2000, jsonOut: true}
		var out bytes.Buffer
		if err := run(o, nil, &out); err != nil {
			t.Fatal(err)
		}
		var sum struct {
			Started uint64                      `json:"packets_started"`
			Hops    map[string]counters.Summary `json:"hops"`
		}
		if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
			t.Fatalf("-json output: %v\n%s", err, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recordings[i] = data
		rc, err := rec.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		wire, nodes := 0, map[string]bool{}
		for _, j := range rc.Journeys {
			if j.Kind == journey.KindWire {
				wire++
			} else {
				nodes[j.Node] = true
			}
		}
		if !rc.Clean || rc.Truncated || sum.Started != 20 || wire != int(sum.Started) || !nodes["n0"] || !nodes["n1"] {
			t.Fatalf("%s: clean=%v truncated=%v, %d wire journeys for %d packets started, want 20; journeys of %v",
				engine, rc.Clean, rc.Truncated, wire, sum.Started, nodes)
		}
		rows := 0
		for j, name := range rc.HistNames {
			hop, ok := strings.CutPrefix(name, "cluster/")
			if !ok || !strings.HasPrefix(hop, "journey/") {
				continue
			}
			rows++
			h, want := rc.Total[j], sum.Hops[hop]
			got := counters.Summary{Count: h.N, Min: h.Min, Max: h.Max, Mean: h.Mean(), P50: h.P50, P95: h.P95, P99: h.P99}
			if got != want {
				t.Errorf("%s: footer row %s = %+v, -json hop %+v", engine, name, got, want)
			}
		}
		if rows != len(sum.Hops) || rows != 6 {
			t.Errorf("%s: %d footer rows for %d -json hops, want 6", engine, rows, len(sum.Hops))
		}
	}
	if !bytes.Equal(recordings[0], recordings[1]) {
		t.Error("the parallel and seq engines recorded different files")
	}
}
