package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gpustl/internal/obs"
)

// kindBench marks the spans the benchmark records around its own calls
// into a layer. Their names are ledger rows, "<layer>.<operation>".
const kindBench = "bench"

// plainRow holds the operations a traced run performs without spans, to
// measure the tracing overhead against.
const plainRow = "bench.plain"

// tracing is the state of a traced run: one tracer holding every span
// in memory until the run ends, a registry for the layers' own counts,
// and the root span the ledger's wall-clock is measured on.
type tracing struct {
	tr   *obs.Tracer
	reg  *obs.Registry
	root *obs.Span
	path string
}

func newTracing(path string) *tracing {
	tr := obs.NewTracer(path)
	return &tracing{tr: tr, reg: obs.NewRegistry(), path: path,
		root: tr.Start(nil, kindBench, "bench.run")}
}

// span runs fn inside a benchmark span named row under parent (nil =
// the run's root). On a nil tracing it just runs fn, so a workload
// wraps its calls unconditionally.
func (t *tracing) span(parent *obs.Span, row string, fn func(*obs.Span) error) error {
	if t == nil {
		return fn(nil)
	}
	if parent == nil {
		parent = t.root
	}
	sp := t.tr.Start(parent, kindBench, row)
	defer sp.End()
	return fn(sp)
}

// trace is span for an operation that starts a trace of its own (a
// served campaign), so stltrace lists it separately; the ledger still
// counts it under the run's root.
func (t *tracing) trace(row string, fn func(*obs.Span) error) error {
	if t == nil {
		return fn(nil)
	}
	sp := t.tr.Start(nil, kindBench, row)
	defer sp.End()
	return fn(sp)
}

// timed runs fn inside a benchmark span (when tracing) and returns its
// host-time duration.
func (t *tracing) timed(parent *obs.Span, row string, fn func(*obs.Span) error) (time.Duration, error) {
	start := time.Now()
	err := t.span(parent, row, fn)
	return time.Since(start), err
}

// rowOf maps a span to its ledger row. Benchmark spans carry their row as
// their name; the spans the program records itself (server, run, dist)
// are mapped by kind and name.
func rowOf(ev obs.Event) string {
	switch {
	case ev.Kind == kindBench:
		return ev.Name
	case ev.Kind == obs.KindCampaign && strings.HasPrefix(ev.Name, "execute:"):
		return "server.exec"
	case ev.Kind == obs.KindCampaign:
		return "run.campaign"
	case ev.Kind == obs.KindPTP:
		return "run.ptp"
	case ev.Kind == obs.KindStage && ev.Name == "queue-wait":
		return "server.queue_wait"
	case ev.Kind == obs.KindStage && ev.Name == "checkpoint":
		return "run.checkpoint"
	case ev.Kind == obs.KindStage:
		return "core." + ev.Name
	case ev.Kind == obs.KindShard && strings.HasPrefix(ev.Name, "shard-exec:"):
		return "dist.exec"
	case ev.Kind == obs.KindShard:
		return "dist.wire"
	}
	return "other." + ev.Kind
}

// ledger holds, per row, the summed span durations (busy) and the self
// time: the part of the traced wall-clock attributed to that row and no
// deeper one. Self times tile the root span exactly, so they add up to
// the traced wall.
type ledger struct {
	busy map[string]float64
	self map[string]float64
	wall float64
}

// buildLedger computes the ledger of a finished trace. A span's self time
// is the time in its extent (its own interval widened to cover its
// descendants, e.g. a retroactive queue-wait child) that no child covers.
// Where children overlap (two clients' campaigns, parallel shards) they
// share the overlapped time equally, so concurrent work is not counted
// twice and the rows still sum to the wall-clock.
func buildLedger(events []obs.Event, rootID uint64) *ledger {
	type node struct {
		ev     obs.Event
		lo, hi int64
		kids   []*node
	}
	nodes := make(map[uint64]*node, len(events))
	for _, ev := range events {
		nodes[ev.ID] = &node{ev: ev, lo: ev.StartN, hi: ev.StartN + ev.DurN}
	}
	var roots []*node
	for _, n := range nodes {
		if p := nodes[n.ev.Parent]; p != nil && n.ev.Parent != 0 {
			p.kids = append(p.kids, n)
		} else {
			roots = append(roots, n)
		}
	}
	// Spans that start a trace of their own (one per served campaign)
	// belong to the run.
	if root := nodes[rootID]; root != nil {
		var rest []*node
		for _, r := range roots {
			if r == root {
				rest = append(rest, r)
			} else {
				root.kids = append(root.kids, r)
			}
		}
		roots = rest
	}
	// A span lying inside a sibling's interval ran within it: the
	// coordinator's shard spans hang off the PTP span but run inside
	// its faultsim or evaluate stage span. Nest each under the smallest
	// sibling that contains it.
	var nest func(n *node)
	nest = func(n *node) {
		var keep []*node
		for _, k := range n.kids {
			var in *node
			for _, s := range n.kids {
				longer := s.ev.DurN > k.ev.DurN || (s.ev.DurN == k.ev.DurN && s.ev.ID < k.ev.ID)
				if s != k && longer && s.ev.Trace == k.ev.Trace && s.lo <= k.lo && k.hi <= s.hi && (in == nil || s.ev.DurN < in.ev.DurN) {
					in = s
				}
			}
			if in != nil {
				in.kids = append(in.kids, k)
			} else {
				keep = append(keep, k)
			}
		}
		n.kids = keep
		for _, k := range n.kids {
			nest(k)
		}
	}
	for _, r := range roots {
		nest(r)
	}
	var extent func(n *node)
	extent = func(n *node) {
		for _, k := range n.kids {
			extent(k)
			n.lo, n.hi = min(n.lo, k.lo), max(n.hi, k.hi)
		}
	}
	l := &ledger{busy: map[string]float64{}, self: map[string]float64{}}
	for _, ev := range events {
		l.busy[rowOf(ev)] += float64(ev.DurN) / 1e9
	}
	// attribute walks n's extent, where segs give the weight (the share
	// of wall-clock) n holds at each instant. Each elementary interval
	// goes to n's self time when no child is active, and is split
	// equally among the active children otherwise.
	type seg struct {
		lo, hi int64
		w      float64
	}
	var attribute func(n *node, segs []seg)
	attribute = func(n *node, segs []seg) {
		points := []int64{n.lo, n.hi}
		for _, sg := range segs {
			points = append(points, sg.lo, sg.hi)
		}
		for _, k := range n.kids {
			points = append(points, k.lo, k.hi)
		}
		sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
		kidSegs := make([][]seg, len(n.kids))
		self, si := 0.0, 0
		var active []int
		for i := 1; i < len(points); i++ {
			a, b := points[i-1], points[i]
			if b <= a || a < n.lo || b > n.hi {
				continue
			}
			for si < len(segs) && segs[si].hi <= a {
				si++
			}
			if si == len(segs) || segs[si].lo > a {
				continue // n holds no share of this interval
			}
			w := segs[si].w
			active = active[:0]
			for j, k := range n.kids {
				if k.lo <= a && b <= k.hi {
					active = append(active, j)
				}
			}
			if len(active) == 0 {
				self += w * float64(b-a)
				continue
			}
			for _, j := range active {
				kidSegs[j] = append(kidSegs[j], seg{a, b, w / float64(len(active))})
			}
		}
		l.self[rowOf(n.ev)] += self / 1e9
		for j, k := range n.kids {
			if len(kidSegs[j]) > 0 {
				attribute(k, kidSegs[j])
			}
		}
	}
	for _, r := range roots {
		extent(r)
		attribute(r, []seg{{r.lo, r.hi, 1}})
		if r.ev.ID == rootID {
			l.wall = float64(r.hi-r.lo) / 1e9
		}
	}
	return l
}

// layerOf is the top-level ledger row of a row: its layer.
func layerOf(row string) string {
	layer, _, _ := strings.Cut(row, ".")
	return layer
}

// finish ends the traced run: it computes the ledger, sets the metrics
// derived from it, prints it, and writes the spans once as obs JSONL.
func (t *tracing) finish(b *bench) error {
	t.root.End()
	events := t.tr.Events()
	l := buildLedger(events, t.root.ID())

	// Operations run without spans for the overhead comparison sit in
	// bench.plain spans; they are not part of the traced wall.
	l.wall -= l.self[plainRow]
	delete(l.self, plainRow)
	byLayer := map[string]float64{}
	for row, s := range l.self {
		byLayer[layerOf(row)] += s
	}
	b.set("bench.traced_wall_s", l.wall, "s")
	b.set("bench.self_s", byLayer["bench"], "s")
	if l.wall > 0 {
		b.set("bench.ledger_coverage_ratio", 1-byLayer["bench"]/l.wall, "ratio")
	}
	for _, r := range []struct{ metric, row string }{
		{"core.partition_busy_s", "core.partition"},
		{"core.trace_busy_s", "core.trace"},
		{"core.faultsim_busy_s", "core.faultsim"},
		{"core.reduce_busy_s", "core.reduce"},
		{"core.reassemble_busy_s", "core.reassemble"},
		{"core.evaluate_busy_s", "core.evaluate"},
		{"run.checkpoint_busy_s", "run.checkpoint"},
		{"server.queue_wait_s", "server.queue_wait"},
		{"server.submit_busy_s", "server.submit"},
		{"server.result_busy_s", "server.result"},
		{"dist.exec_busy_s", "dist.exec"},
		{"circuits.busy_s", "circuits.build"},
		{"fault.sample_busy_s", "fault.sample"},
		{"ptpgen.gen_busy_s", "ptpgen.gen"},
		{"ptpgen.convert_busy_s", "ptpgen.convert"},
		{"atpg.sp_busy_s", "atpg.sp"},
		{"atpg.sfu_busy_s", "atpg.sfu"},
		{"experiments.table1_busy_s", "experiments.table1"},
		{"experiments.table2_busy_s", "experiments.table2"},
		{"experiments.table3_busy_s", "experiments.table3"},
		{"experiments.summary_busy_s", "experiments.summary"},
		{"netlist.compile_busy_s", "netlist.compile"},
		{"gpu.busy_s", "gpu.run"},
		{"fault.sim_busy_s", "fault.sim"},
	} {
		b.set(r.metric, l.busy[r.row], "s")
	}
	if c := b.metrics["gpu.sim_cycles"].Value; c > 0 {
		b.set("gpu.host_ns_per_cycle", l.busy["gpu.run"]*1e9/c, "ns")
	}
	b.set("server.exec_self_s", l.self["server.exec"], "s")
	b.set("run.self_s", l.self["run.campaign"]+l.self["run.ptp"], "s")
	b.set("dist.wire_busy_s", l.busy["dist.wire"]-l.busy["dist.exec"], "s")

	printLedger(b.cfg.workload, l, byLayer)
	if err := os.MkdirAll(filepath.Dir(t.path), 0o777); err != nil {
		return err
	}
	if err := t.tr.Flush(); err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", t.path, len(events))
	return nil
}

// printLedger prints per-layer self time and share of the traced wall,
// with each layer's rows beneath it.
func printLedger(workload string, l *ledger, byLayer map[string]float64) {
	fmt.Printf("ledger %s: traced wall %.3fs\n", workload, l.wall)
	layers := make([]string, 0, len(byLayer))
	for layer := range byLayer {
		layers = append(layers, layer)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	share := func(s float64) float64 {
		if l.wall == 0 {
			return 0
		}
		return 100 * s / l.wall
	}
	for _, layer := range layers {
		fmt.Printf("  %-12s %10.3fs %6.1f%%\n", layer, byLayer[layer], share(byLayer[layer]))
		var rows []string
		for row := range l.self {
			if layerOf(row) == layer {
				rows = append(rows, row)
			}
		}
		sort.Slice(rows, func(i, j int) bool { return l.self[rows[i]] > l.self[rows[j]] })
		for _, row := range rows {
			fmt.Printf("    %-26s self %9.3fs %6.1f%%  busy %9.3fs\n", row, l.self[row], share(l.self[row]), l.busy[row])
		}
	}
}
