// Package telemetry streams live counter-registry snapshots and journey
// histogram deltas out of a running simulation over HTTP — the "watch the
// run while it is still going" half of the observability layer, feeding
// cmd/csbtop and any curl/browser consumer.
//
// The simulator stays single-threaded and deterministic: the sim loop
// calls Publish on a sim-cycle cadence (Machine.AttachPeriodic or
// Cluster.AttachTelemetry), which snapshots every registered node's
// counter registry into one JSON frame and hands it to the HTTP side.
// Serving happens on ordinary goroutines; a slow or absent consumer never
// stalls the simulation (frames are dropped per subscriber, with a drop
// counter in the next frame they do see). Nothing here reads the wall
// clock — frames are keyed by simulated cycles only, so attaching
// telemetry perturbs neither timing nor results.
//
// Endpoints:
//
//	/snapshot  — the most recent frame, as one JSON object
//	/stream    — server-sent events: one `data: <frame JSON>` per publish
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/rec"
)

// HistFrame is one histogram's state in a frame: the cumulative summary
// plus the number of new samples since the previous frame.
type HistFrame struct {
	counters.Summary
	Delta uint64 `json:"delta"`
}

// NodeFrame is one node's slice of a frame.
type NodeFrame struct {
	Counters   map[string]uint64    `json:"counters"`
	Histograms map[string]HistFrame `json:"histograms,omitempty"`
}

// Alert is one currently-breached SLO rule binding: the flight
// recorder's own type, mirrored into frames so live dashboards show
// breach state without parsing the recording.
type Alert = rec.Alert

// Frame is one published telemetry snapshot.
type Frame struct {
	// Cycle is the simulated cycle the frame was taken at.
	Cycle uint64 `json:"cycle"`
	// Seq numbers frames from 1.
	Seq uint64 `json:"seq"`
	// Dropped counts frames this subscriber missed since the last one it
	// received (0 on /snapshot and for keeping-up streams).
	Dropped uint64                `json:"dropped,omitempty"`
	Nodes   map[string]*NodeFrame `json:"nodes"`
	// Alerts lists the SLO rules in breach when the frame was taken
	// (absent when no recorder/SLO is attached or nothing is breached).
	Alerts []Alert `json:"alerts,omitempty"`
}

// node is one registered snapshot source.
type node struct {
	name string
	reg  *counters.Registry
	// prevHist remembers each histogram's cumulative count at the last
	// publish, for the per-frame deltas.
	prevHist map[string]uint64
}

// subscriber is one connected /stream consumer.
type subscriber struct {
	ch      chan []byte
	dropped uint64
}

// Streamer owns the registered nodes and the subscriber set. Register
// nodes and attach the publish cadence before running; Serve (or an
// external http server via ServeHTTP) can start at any time.
type Streamer struct {
	nodes  []*node
	seq    uint64
	alerts func() []Alert

	mu   sync.Mutex // guards subs and last across sim and HTTP goroutines
	subs map[*subscriber]struct{}
	last []byte
}

// New creates an empty streamer.
func New() *Streamer {
	return &Streamer{subs: make(map[*subscriber]struct{})}
}

// AddNode registers a named counter registry to be snapshotted into every
// frame. Names must be unique.
func (s *Streamer) AddNode(name string, reg *counters.Registry) error {
	for _, n := range s.nodes {
		if n.name == name {
			return fmt.Errorf("telemetry: duplicate node %q", name)
		}
	}
	s.nodes = append(s.nodes, &node{name: name, reg: reg, prevHist: make(map[string]uint64)})
	return nil
}

// SetAlerts installs the active-alert source (the flight recorder's
// ActiveAlerts method), called at every Publish from the sim loop. The
// last setter wins; pass nil to detach.
func (s *Streamer) SetAlerts(fn func() []Alert) { s.alerts = fn }

// Publish snapshots every node and broadcasts one frame. Called from the
// sim loop on a sim-cycle cadence; it never blocks on consumers.
//
//csb:barrier snapshots every node's registry; only safe between windows
func (s *Streamer) Publish(cycle uint64) {
	s.seq++
	f := Frame{Cycle: cycle, Seq: s.seq, Nodes: make(map[string]*NodeFrame, len(s.nodes))}
	if s.alerts != nil {
		f.Alerts = s.alerts()
	}
	for _, n := range s.nodes {
		snap := n.reg.Snapshot()
		nf := &NodeFrame{Counters: snap.Counters}
		if len(snap.Histograms) > 0 {
			nf.Histograms = make(map[string]HistFrame, len(snap.Histograms))
			for name, sum := range snap.Histograms {
				nf.Histograms[name] = HistFrame{Summary: sum, Delta: sum.Count - n.prevHist[name]}
				n.prevHist[name] = sum.Count
			}
		}
		f.Nodes[n.name] = nf
	}
	data, err := json.Marshal(f)
	if err != nil {
		return // a frame that cannot marshal is dropped, not fatal
	}
	s.mu.Lock()
	s.last = data
	for sub := range s.subs { //csb:orderless — each subscriber gets the same bytes
		sub.deliver(data, &f)
	}
	s.mu.Unlock()
}

// deliver hands a frame to one subscriber without blocking. A full
// channel drops the frame and surfaces the gap in the next delivered
// frame's Dropped field.
func (sub *subscriber) deliver(data []byte, f *Frame) {
	if sub.dropped > 0 {
		// Re-marshal with the gap count for this subscriber only.
		df := *f
		df.Dropped = sub.dropped
		if d, err := json.Marshal(df); err == nil {
			data = d
		}
	}
	select {
	case sub.ch <- data:
		sub.dropped = 0
	default:
		sub.dropped++
	}
}

// Snapshot returns the most recently published frame (nil before the
// first publish).
func (s *Streamer) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// ServeHTTP implements the /snapshot and /stream endpoints.
func (s *Streamer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/", "/snapshot":
		data := s.Snapshot()
		if data == nil {
			http.Error(w, "no frame published yet", http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		w.Write([]byte("\n"))
	case "/stream":
		s.serveStream(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveStream is the SSE endpoint: the latest frame immediately, then one
// event per publish until the client goes away.
func (s *Streamer) serveStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	sub := &subscriber{ch: make(chan []byte, 64)}
	s.mu.Lock()
	if s.last != nil {
		sub.ch <- s.last
	}
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
	}()

	for {
		select {
		case <-r.Context().Done():
			return
		case data := <-sub.ch:
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// Serve starts an HTTP server on addr (e.g. "127.0.0.1:0") serving the
// streamer's endpoints, and returns the bound address plus a stop
// function. The server runs on its own goroutine; the sim loop only ever
// touches Publish.
func (s *Streamer) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
