package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/gpu"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/server"
	"gpustl/internal/stl"
)

const (
	// fleetPool is how many distinct campaign specs served-fleet submits
	// fresh; -seed picks the order. It exceeds the fresh campaigns one
	// run completes several times over: a fresh submit must miss the
	// result cache, so no spec is submitted fresh twice in a run.
	fleetPool = 512
	// fleetClients is the closed loop's client count (= nproc of the
	// 2-CPU reference machine).
	fleetClients = 2
	// fleetWorkers is the number of in-process loopback-HTTP workers.
	fleetWorkers = 2
	// repeatEvery makes every 4th submit repeat a finished campaign's
	// spec, served from the verified result cache.
	repeatEvery = 4
	// fleetSegments splits an untraced run's load into segments, with
	// segmentSetups cold starts before each: a throwaway fleet on a
	// fresh state directory is started, serves one fresh campaign and
	// is stopped. setup_s is the median of their times to the first
	// verified result, and op_p90_ms the median of the segments' p90s,
	// so a burst of load from outside the benchmark that hits one or two
	// segments does not move either.
	fleetSegments = 10
	segmentSetups = 2
	// pollEvery is the client's status poll period.
	pollEvery = 250 * time.Microsecond
)

// fleetSpec is pool entry i: a generated DU campaign.
func fleetSpec(i int, tiny bool) (*server.Spec, string) {
	sp := &server.Spec{Tenant: "bench", Target: "DU", N: 60, Seed: 5000 + int64(i), Faults: 2000}
	scale := "full"
	if tiny {
		sp.N, sp.Faults, scale = 4, 300, "tiny"
	}
	return sp, fmt.Sprintf("served-fleet/%s/spec%d", scale, sp.Seed)
}

// fleetOrder is the order in which a run with this seed submits the pool
// fresh.
func fleetOrder(seed int64) []int { return rand.New(rand.NewSource(seed)).Perm(fleetPool) }

// fleet is an in-process stlserver with two stlworkers behind loopback
// HTTP: server.Options at stlserver's defaults, its Fleet a
// dist.Coordinator over dist.NewHTTP transports to dist handlers.
type fleet struct {
	srv     *server.Server
	reg     *obs.Registry
	cancel  context.CancelFunc
	runErr  chan error
	workers []*http.Server
	trans   []dist.Transport
}

// startFleet starts the workers and the server on a fresh state directory
// and returns once the server is Ready.
func startFleet(stateDir string, tr *obs.Tracer, reg *obs.Registry) (*fleet, error) {
	f := &fleet{reg: reg, runErr: make(chan error, 1)}
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		h := dist.NewHandlerOptions(fmt.Sprintf("w%d", i), dist.WorkerOptions{
			Metrics: obs.NewRegistry(), Tracer: tr})
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		f.workers = append(f.workers, hs)
		f.trans = append(f.trans, dist.NewHTTP(ln.Addr().String()))
	}
	f.srv = server.New(server.Options{
		StateDir: stateDir,
		Holder:   "e2ebench",
		Fleet: func() (core.FaultSimulator, error) {
			return dist.New(dist.Options{Metrics: reg, Tracer: tr}, f.trans...)
		},
		Metrics: reg,
		Tracer:  tr,
		Usage:   obs.NewUsageMeter(reg),
	})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() { f.runErr <- f.srv.Run(ctx) }()
	for !f.srv.Ready() {
		select {
		case err := <-f.runErr:
			f.runErr <- err
			f.stop()
			return nil, fmt.Errorf("server stopped before ready: %v", err)
		case <-time.After(50 * time.Microsecond):
		}
	}
	return f, nil
}

// stop drains the server and shuts the workers down, waiting for each.
func (f *fleet) stop() error {
	var err error
	if f.cancel != nil {
		f.cancel()
		err = <-f.runErr
	}
	for _, w := range f.workers {
		w.Close()
	}
	for _, t := range f.trans {
		t.Close()
	}
	return err
}

// fleetLoad is the shared state of the closed-loop clients.
type fleetLoad struct {
	b     *bench
	f     *fleet
	tr    *tracing // nil: no client spans
	order []int
	until time.Time // end of the current segment
	busy  time.Duration

	mu       sync.Mutex
	submits  int
	fresh    int            // pool entries submitted fresh so far
	finished []int          // pool entries done fresh: repeat candidates
	first    map[int][]byte // their artifacts
	freshLat []float64
	hitLat   []float64
	results  int       // verified Result reads
	repeats  int       // repeat campaigns completed
	end      time.Time // when the last client of the segment finished
}

// next picks the next submit: a repeat of a finished campaign every
// repeatEvery-th submit, a fresh pool entry otherwise. ok is false when
// the run is over: the deadline passed, or (in a recording run, which
// ignores the deadline) the pool is used up.
func (l *fleetLoad) next() (entry int, id string, repeat, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.b.cfg.record && !time.Now().Before(l.until) {
		return 0, "", false, false
	}
	l.submits++
	id = fmt.Sprintf("c%06d", l.submits)
	if l.submits%repeatEvery == 0 && len(l.finished) > 0 {
		return l.finished[(l.submits/repeatEvery)%len(l.finished)], id, true, true
	}
	if l.fresh >= fleetPool {
		return 0, "", false, false
	}
	l.fresh++
	return l.order[l.fresh-1], id, false, true
}

// client runs one closed-loop client: submit, poll until the campaign
// ends, read the verified result, check it, repeat.
func (l *fleetLoad) client() {
	for {
		entry, id, repeat, ok := l.next()
		if !ok {
			return
		}
		sp, key := fleetSpec(entry, l.b.cfg.tiny)
		start := time.Now()
		data, err := l.campaign(id, sp)
		lat := time.Since(start).Seconds()
		good := err == nil && l.b.gate.check(key, digest(data))
		if err != nil {
			l.b.gate.fail("%s (%s): %v", key, id, err)
		}
		l.mu.Lock()
		if repeat {
			if good && !bytes.Equal(data, l.first[entry]) {
				l.b.gate.fail("%s (%s): repeat artifact differs from the first run's", key, id)
				good = false
			}
			l.hitLat = append(l.hitLat, lat)
			l.repeats++
		} else {
			l.freshLat = append(l.freshLat, lat)
			if good {
				l.first[entry] = data
				l.finished = append(l.finished, entry)
			}
		}
		if err == nil {
			l.results++
		}
		l.end = time.Now()
		l.mu.Unlock()
		l.b.gate.done(good)
	}
}

// campaign submits one campaign, waits for it to end and returns its
// verified artifact. In a traced run the client span's context rides
// along with the submit, so the server's execute span and everything
// under it join the client's trace.
func (l *fleetLoad) campaign(id string, sp *server.Spec) ([]byte, error) {
	var data []byte
	err := l.tr.trace("bench.campaign", func(cs *obs.Span) error {
		hdr := ""
		if cs != nil {
			hdr = cs.Context().Header()
		}
		if err := l.tr.span(cs, "server.submit", func(*obs.Span) error {
			_, err := l.f.srv.SubmitTrace(id, sp, hdr)
			return err
		}); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		for {
			v, ok := l.f.srv.Get(id)
			if !ok {
				return errors.New("campaign vanished")
			}
			if v.State.Terminal() {
				if v.State != server.StateDone {
					return fmt.Errorf("campaign ended %s: %s", v.State, v.Error)
				}
				break
			}
			time.Sleep(pollEvery)
		}
		return l.tr.span(cs, "server.result", func(*obs.Span) (err error) {
			data, err = l.f.srv.Result(id)
			return err
		})
	})
	return data, err
}

func newLoad(b *bench, f *fleet, tr *tracing, order []int, fresh int) *fleetLoad {
	return &fleetLoad{b: b, f: f, tr: tr, order: order, fresh: fresh, first: map[int][]byte{}}
}

// run drives the closed loop for one segment of length d. Repeats may
// pick campaigns finished in earlier segments.
func (l *fleetLoad) run(d time.Duration) {
	start := time.Now()
	l.until = start.Add(d)
	l.end = time.Time{}
	var wg sync.WaitGroup
	for i := 0; i < fleetClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.client()
		}()
	}
	wg.Wait()
	if l.end.IsZero() {
		l.end = time.Now()
	}
	l.busy += l.end.Sub(start)
}

// coldStarts brings up one throwaway fleet per pool entry, each on a
// fresh state directory under root, and runs that entry's campaign on it.
// It returns each fleet's time from start to the first verified result;
// each campaign is gated as one operation.
func coldStarts(b *bench, root string, entries []int) ([]float64, error) {
	var times []float64
	for _, entry := range entries {
		dir, err := os.MkdirTemp(root, "setup-")
		if err != nil {
			return nil, err
		}
		sp, key := fleetSpec(entry, b.cfg.tiny)
		start := time.Now()
		f, err := startFleet(dir, nil, obs.NewRegistry())
		if err != nil {
			return nil, fmt.Errorf("starting fleet: %w", err)
		}
		data, err := newLoad(b, f, nil, nil, 0).campaign("cold", sp)
		times = append(times, time.Since(start).Seconds())
		good := err == nil && b.gate.check(key, digest(data))
		if err != nil {
			b.gate.fail("%s (cold start): %v", key, err)
		}
		b.gate.done(good)
		if err := f.stop(); err != nil {
			return nil, fmt.Errorf("stopping fleet: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// checkCacheAccounting gates the server's cache counter: every repeat
// campaign is one verified cache hit at execution, and every result
// read is one more.
func checkCacheAccounting(b *bench, l *fleetLoad) {
	hits := l.f.reg.Counter("gpustl_server_cache_hits_total").Value()
	ok := hits == uint64(l.repeats+l.results)
	if !ok {
		b.gate.fail("gpustl_server_cache_hits_total = %d, want %d repeats + %d result reads", hits, l.repeats, l.results)
	}
	b.gate.done(ok)
}

// runServedFleet measures the served path: an in-process stlserver with
// a two-worker dist fleet on a fresh state directory (real fsyncs), under
// a closed loop of two clients submitting generated DU campaigns, every
// 4th a repeat served from the verified cache.
func runServedFleet(b *bench) error {
	order := fleetOrder(b.cfg.seed)
	root, err := os.MkdirTemp(b.cfg.workDir, "served-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	f, err := startFleet(filepath.Join(root, "state"), nil, obs.NewRegistry())
	if err != nil {
		return fmt.Errorf("starting fleet: %w", err)
	}
	l := newLoad(b, f, nil, order, 0)
	if b.tr == nil {
		// A recording run ignores the deadline, so one segment uses up
		// the pool.
		segments := fleetSegments
		if b.cfg.record {
			segments = 1
		}
		var setups, p90s []float64
		for s := 0; s < segments; s++ {
			// The cold starts take pool entries from the end of the
			// run's order, which the closed loop submits last if at all.
			end := len(order) - s*segmentSetups
			ts, err := coldStarts(b, root, order[end-segmentSetups:end])
			if err != nil {
				f.stop()
				return err
			}
			setups = append(setups, ts...)
			done := len(l.freshLat)
			l.run(b.cfg.seconds / time.Duration(segments))
			if seg := l.freshLat[done:]; len(seg) > 0 {
				p90s = append(p90s, quantile(seg, 0.9))
			}
		}
		if err := f.stop(); err != nil {
			return fmt.Errorf("stopping fleet: %w", err)
		}
		checkCacheAccounting(b, l)
		b.set("setup_s", median(setups), "s")
		b.set("op_p50_ms", 1e3*median(l.freshLat), "ms")
		b.set("op_p90_ms", 1e3*median(p90s), "ms")
		b.set("ops_per_s", float64(len(l.freshLat)+len(l.hitLat))/l.busy.Seconds(), "1/s")
		fmt.Printf("info fresh=%d repeats=%d cache_hit_p50_ms=%.3f\n", len(l.freshLat), len(l.hitLat), 1e3*median(l.hitLat))
		return nil
	}

	// A traced run loads this fleet without spans for half the time,
	// for the overhead comparison, and a traced fleet for the other half.
	d := b.cfg.seconds / 2
	b.tr.span(nil, plainRow, func(*obs.Span) error {
		l.run(d)
		return nil
	})
	if err := f.stop(); err != nil {
		return fmt.Errorf("stopping fleet: %w", err)
	}
	checkCacheAccounting(b, l)

	// The traced fleet shares the run's tracer with the server, the
	// coordinator and the workers, so their execute, queue-wait,
	// campaign, PTP, stage, checkpoint, shard and shard-exec spans join
	// the client spans in one trace.
	tr := b.tr
	var tf *fleet
	if err := tr.span(nil, "bench.setup", func(*obs.Span) (err error) {
		tf, err = startFleet(filepath.Join(root, "traced"), tr.tr, tr.reg)
		return err
	}); err != nil {
		return fmt.Errorf("starting traced fleet: %w", err)
	}
	tl := newLoad(b, tf, tr, order, l.fresh)
	tl.run(d)
	if err := tr.span(nil, "bench.teardown", func(*obs.Span) error { return tf.stop() }); err != nil {
		return fmt.Errorf("stopping traced fleet: %w", err)
	}
	checkCacheAccounting(b, tl)
	b.set("bench.trace_overhead_ratio", median(tl.freshLat)/median(l.freshLat)-1, "ratio")
	b.set("server.cache_hit_p50_ms", 1e3*median(tl.hitLat), "ms")
	reg := tr.reg
	hits := obs.CounterSumValue(reg, "gpustl_usage_cache_hits_total")()
	misses := obs.CounterSumValue(reg, "gpustl_usage_cache_misses_total")()
	if hits+misses > 0 {
		b.set("server.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	shards := float64(reg.Counter("gpustl_dist_shards_total").Value())
	dispatches := float64(reg.Counter("gpustl_dist_dispatches_total").Value())
	b.set("dist.shards", shards, "count")
	if dispatches > 0 {
		b.set("dist.redispatch_ratio", (dispatches-shards)/dispatches, "ratio")
	}
	// The gpu and fault rows, on the PTPs and fault list of the first
	// campaign spec, measured directly.
	sp, _ := fleetSpec(order[0], b.cfg.tiny)
	inputs, err := fleetInputs(sp)
	if err != nil {
		return err
	}
	return measureEngine(b, gpu.DefaultConfig(), inputs)
}

// fleetInputs builds the library and module set the server builds for a
// generated DU spec (internal/server's buildEnv).
func fleetInputs(sp *server.Spec) ([]engineInput, error) {
	lib := &stl.STL{PTPs: []*stl.PTP{
		ptpgen.IMM(sp.N, sp.Seed+1),
		ptpgen.MEM(sp.N, sp.Seed+2),
		ptpgen.CNTRL(max(2, sp.N/10), sp.Seed+3),
	}}
	ms, err := core.NewModuleSet(lib, sp.Faults, sp.Seed)
	if err != nil {
		return nil, err
	}
	var inputs []engineInput
	for _, p := range lib.PTPs {
		inputs = append(inputs, engineInput{p, ms.Modules[p.Target], ms.Faults[p.Target]})
	}
	return inputs, nil
}
