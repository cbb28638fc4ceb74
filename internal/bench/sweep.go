// Parallel sweep engine. Every paper figure is a sweep of independent
// (machine, scheme, transfer-size) points. Each sweep worker keeps one
// sim.Machine (or, for X8, one cluster.Cluster) for the length of a Sweep
// call and resets it (sim.Machine.Reset, cluster.Cluster.Reset) between
// the points it measures, so a point starts from exactly the state New
// would build without building it. A worker's machine and cluster live
// only as long as its Sweep: no mutable state is
// shared between sweeps or workers (the only package-level variables in
// the simulator are immutable lookup tables and the test hooks below), so
// the points can run on as many OS threads as the host offers. Sweep fans
// the points across a worker pool and assembles results in index order,
// so the output is byte-identical to a sequential run regardless of
// worker count or scheduling.
package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"csbsim/internal/cluster"
	"csbsim/internal/sim"
)

// build is sim.New and buildCluster cluster.New: every machine and
// cluster a figure measures on is built through them, so a test can count
// the machines.
var (
	build        = sim.New
	buildCluster = cluster.New
)

// worker is one sweep worker's reusable machine and cluster. The nil
// worker builds fresh ones per call, which the exported Measure functions
// use.
type worker struct {
	m *sim.Machine
	c *cluster.Cluster
}

// machine returns a machine in the state sim.New(cfg) gives: the
// worker's own, reset, or one built on the worker's first point.
func (w *worker) machine(cfg sim.Config) (*sim.Machine, error) {
	if w == nil {
		return build(cfg)
	}
	if w.m != nil {
		return w.m, w.m.Reset(cfg)
	}
	m, err := build(cfg)
	if err != nil {
		return nil, err
	}
	w.m = m
	return m, nil
}

// cluster returns a cluster in the state cluster.New(cfg) gives: the
// worker's own, reset, or one built on the worker's first point.
func (w *worker) cluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if w == nil {
		return buildCluster(cfg)
	}
	if w.c != nil {
		return w.c, w.c.Reset(cfg)
	}
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	w.c = c
	return c, nil
}

// workerCount is the package-wide default parallelism for Sweep calls
// that pass workers <= 0. Zero means "use GOMAXPROCS".
var workerCount atomic.Int32

// Workers reports the current default sweep parallelism.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the default sweep parallelism (the figure tool's -j
// flag lands here). n <= 0 restores the GOMAXPROCS default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int32(n))
}

// Sweep measures every point with fn, running up to `workers` calls
// concurrently (workers <= 0 means the package default, see SetWorkers).
// Results are returned in point order. fn must be safe for concurrent
// use; measurement functions that build a fresh Machine per call are.
//
// On error the sweep stops handing out new points, waits for in-flight
// measurements, and returns the error of the lowest-index failed point —
// the same error a sequential run would surface first.
func Sweep[P, R any](points []P, workers int, fn func(P) (R, error)) ([]R, error) {
	return sweep(points, workers, func(_ *worker, p P) (R, error) { return fn(p) })
}

// sweep is Sweep handing fn the calling worker, whose machine the
// measurement may reset instead of building one.
func sweep[P, R any](points []P, workers int, fn func(*worker, P) (R, error)) ([]R, error) {
	results := make([]R, len(points))
	if len(points) == 0 {
		return results, nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > len(points) {
		workers = len(points)
	}
	if workers == 1 {
		// Sequential fast path: no goroutines, deterministic by
		// construction. This is also the reference path the parallel
		// assembly is tested against.
		var w worker
		for i, p := range points {
			r, err := fn(&w, p)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next     atomic.Int64 // next unclaimed point index
		stop     atomic.Bool  // set on first error: stop claiming points
		mu       sync.Mutex
		errIdx   = -1 // lowest failed index seen so far
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			var w worker
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) || stop.Load() {
					return
				}
				r, err := fn(&w, points[i])
				if err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// seriesPoint addresses one (series, x) cell of a figure grid.
type seriesPoint struct{ si, xi int }

// sweepSeries evaluates an nSeries x nX measurement grid on the sweep
// pool and returns the filled Y vectors, one per series. fn receives the
// calling worker and the series and x indices and returns that cell's
// measurement.
func sweepSeries(nSeries, nX int, fn func(w *worker, si, xi int) (float64, error)) ([][]float64, error) {
	points := make([]seriesPoint, 0, nSeries*nX)
	for si := 0; si < nSeries; si++ {
		for xi := 0; xi < nX; xi++ {
			points = append(points, seriesPoint{si, xi})
		}
	}
	ys, err := sweep(points, 0, func(w *worker, pt seriesPoint) (float64, error) {
		return fn(w, pt.si, pt.xi)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, nSeries)
	for si := range out {
		out[si] = make([]float64, nX)
	}
	for k, pt := range points {
		out[pt.si][pt.xi] = ys[k]
	}
	return out, nil
}
