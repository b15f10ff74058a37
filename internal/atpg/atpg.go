package atpg

import (
	"math/rand"
	"runtime"
	"sync"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

// Options tunes a generation run.
type Options struct {
	Seed int64

	// RandomBlocks is the maximum number of 64-pattern random blocks.
	RandomBlocks int
	// UselessLimit stops the random phase after this many consecutive
	// blocks that detect nothing new.
	UselessLimit int
	// UsePodem enables the deterministic phase for the random-resistant
	// remainder.
	UsePodem bool
	// MaxBacktracks bounds each PODEM run.
	MaxBacktracks int
	// SampleFaults caps the targeted fault list (0 = all faults). Fault
	// sampling keeps medium-scale campaigns tractable.
	SampleFaults int
	// Collapse applies structural fault collapsing before generation.
	Collapse bool
	// KeepAllBlocks emits every pattern of the first N useful random
	// blocks instead of only the first-detecting ones. Commercial ATPG
	// pattern files carry exactly this kind of early redundancy (easy
	// faults are detected by many patterns); the paper's TPGEN/SFU_IMM
	// compaction rates presuppose it. 0 keeps strict selection.
	KeepAllBlocks int
}

// DefaultOptions returns a reasonable configuration.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:          seed,
		RandomBlocks:  256,
		UselessLimit:  8,
		UsePodem:      true,
		MaxBacktracks: 300,
	}
}

// Result is the outcome of a generation run.
type Result struct {
	Patterns []circuits.Pattern

	TotalFaults  int // faults targeted
	RandomDet    int // detected in the random phase
	PodemDet     int // detected by PODEM-generated patterns
	Untestable   int // PODEM proved/abandoned without a pattern
	Aborted      int // of Untestable, PODEM runs that exhausted MaxBacktracks
	RandPatterns int // patterns kept from the random phase

	// Discarded counts PODEM runs made ahead of the commit point and
	// thrown away because an earlier kept pattern already detected their
	// target. It depends on GOMAXPROCS; nothing else does.
	Discarded int
}

// Coverage returns the achieved fault coverage over the targeted list.
func (r *Result) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 0
	}
	return 100 * float64(r.RandomDet+r.PodemDet) / float64(r.TotalFaults)
}

// Generate produces a compact detecting pattern set for the module's
// stuck-at faults: a random phase keeps only patterns that first-detect at
// least one fault; PODEM then targets the remainder, fault-simulating each
// new pattern to drop collateral detections.
//
// ATPG works on a single lane of the module (the same patterns reach every
// lane when the converted PTP executes across all threads).
func Generate(m *circuits.Module, opt Options) *Result {
	rng := rand.New(rand.NewSource(opt.Seed))
	oneLane := &circuits.Module{Kind: m.Kind, NL: m.NL, Lanes: 1}

	sites := fault.AllSites(m.NL)
	if opt.Collapse {
		sites = fault.CollapseEquivalent(m.NL, sites)
	}
	camp := fault.NewCampaignWithFaults(oneLane, fault.ExpandLanes(sites, 1))
	if opt.SampleFaults > 0 {
		camp.SampleFaults(opt.SampleFaults, opt.Seed)
	}
	res := &Result{TotalFaults: camp.Total()}

	numIn := len(m.NL.Inputs)
	randomPattern := func() circuits.Pattern {
		var p circuits.Pattern
		p.W[0] = rng.Uint64()
		p.W[1] = rng.Uint64()
		// Mask to the input count.
		if numIn < 64 {
			p.W[0] &= 1<<uint(numIn) - 1
			p.W[1] = 0
		} else if numIn < 128 {
			p.W[1] &= 1<<uint(numIn-64) - 1
		}
		return p
	}

	// Random phase.
	useless := 0
	usefulBlocks := 0
	for blk := 0; blk < opt.RandomBlocks && useless < opt.UselessLimit; blk++ {
		stream := make([]fault.TimedPattern, 64)
		for i := range stream {
			stream[i] = fault.TimedPattern{CC: uint64(blk*64 + i), Pat: randomPattern()}
		}
		rep := camp.Simulate(stream, fault.SimOptions{})
		if rep.DetectedThisRun() == 0 {
			useless++
			continue
		}
		useless = 0
		res.RandomDet += rep.DetectedThisRun()
		if usefulBlocks < opt.KeepAllBlocks {
			for i := range stream {
				res.Patterns = append(res.Patterns, stream[i].Pat)
				res.RandPatterns++
			}
		} else {
			for i, n := range rep.DetectedPerPattern {
				if n > 0 {
					res.Patterns = append(res.Patterns, stream[i].Pat)
					res.RandPatterns++
				}
			}
		}
		usefulBlocks++
	}

	// Deterministic phase.
	if opt.UsePodem {
		podemPhase(m.NL, camp, opt.MaxBacktracks, res)
	}
	return res
}

// podemPhase targets every fault the random phase left undetected, in
// fault order, fault-simulating each PODEM pattern to drop collateral
// detections.
//
// PODEM for one fault depends only on the netlist and the fault, so
// GOMAXPROCS workers run pending targets ahead of the commit point while
// results are committed strictly in fault order. A target an earlier
// commit already detects is discarded unseen — exactly the target serial
// generation would have skipped — so the kept patterns and counts match
// serial generation at any worker count. Run times are heavy-tailed (a
// budget-exhausting target costs ~50× a median one), so workers may run
// up to lookahead targets past the commit point instead of waiting on
// the slowest run of a fixed batch.
func podemPhase(nl *netlist.Netlist, camp *fault.Campaign, maxBacktracks int, res *Result) {
	type target struct {
		id      fault.ID
		site    netlist.FaultSite
		pat     circuits.Pattern
		found   bool
		aborted bool
		done    chan struct{}
	}
	workers := runtime.GOMAXPROCS(0)
	lookahead := 4 * workers
	if workers == 1 {
		lookahead = 1 // nothing runs concurrently; speculation only wastes work
	}
	// At most lookahead targets are pending, so dispatch never blocks.
	jobs := make(chan *target, lookahead)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pd := newPodem(nl, maxBacktracks)
			for t := range jobs {
				t.pat, t.found = pd.run(t.site)
				t.aborted = pd.aborted
				close(t.done)
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)

	faults := camp.Faults()
	var pending []*target // dispatched, not yet committed, in fault order
	for next := 0; ; {
		for ; next < len(faults) && len(pending) < lookahead; next++ {
			if !camp.IsDetected(fault.ID(next)) {
				t := &target{id: fault.ID(next), site: faults[next].Site, done: make(chan struct{})}
				pending = append(pending, t)
				jobs <- t
			}
		}
		if len(pending) == 0 {
			return
		}
		t := pending[0]
		pending = pending[1:]
		<-t.done
		switch {
		case camp.IsDetected(t.id):
			res.Discarded++
		case !t.found:
			res.Untestable++
			if t.aborted {
				res.Aborted++
			}
		default:
			rep := camp.Simulate([]fault.TimedPattern{{Pat: t.pat}}, fault.SimOptions{})
			if rep.DetectedThisRun() == 0 {
				// The PODEM pattern must detect its target; a miss means a
				// modeling bug — treat conservatively as untestable.
				res.Untestable++
				continue
			}
			res.PodemDet += rep.DetectedThisRun()
			res.Patterns = append(res.Patterns, t.pat)
		}
	}
}

// StaticCompact performs classic static test-set compaction: the patterns
// are replayed in reverse order against a fresh campaign over the same
// fault list, and only patterns that first-detect at least one fault are
// kept (reverse-order fault simulation drops the early redundancy that
// greedy generation accumulates). The kept patterns preserve the original
// set's coverage exactly.
func StaticCompact(m *circuits.Module, patterns []circuits.Pattern, opt Options) []circuits.Pattern {
	oneLane := &circuits.Module{Kind: m.Kind, NL: m.NL, Lanes: 1}
	sites := fault.AllSites(m.NL)
	if opt.Collapse {
		sites = fault.CollapseEquivalent(m.NL, sites)
	}
	camp := fault.NewCampaignWithFaults(oneLane, fault.ExpandLanes(sites, 1))
	if opt.SampleFaults > 0 {
		camp.SampleFaults(opt.SampleFaults, opt.Seed)
	}
	stream := make([]fault.TimedPattern, len(patterns))
	for i, p := range patterns {
		stream[i] = fault.TimedPattern{CC: uint64(i), Pat: p}
	}
	rep := camp.Simulate(stream, fault.SimOptions{Reverse: true})
	// rep is in reversed order; keep detecting patterns, restoring the
	// original relative order.
	keepRev := make([]bool, len(patterns))
	for i, n := range rep.DetectedPerPattern {
		if n > 0 {
			keepRev[i] = true
		}
	}
	var out []circuits.Pattern
	for i := range patterns {
		// Stream entry j in the reversed order corresponds to original
		// index len-1-j.
		if keepRev[len(patterns)-1-i] {
			out = append(out, patterns[i])
		}
	}
	return out
}

// GenerateForSites runs PODEM for an explicit list of fault sites and
// returns one pattern per testable fault (no random phase, no dropping) —
// a building block for tests and focused campaigns.
func GenerateForSites(nl *netlist.Netlist, sites []netlist.FaultSite, maxBacktracks int) (pats []circuits.Pattern, untestable int) {
	pd := newPodem(nl, maxBacktracks)
	for _, s := range sites {
		if pat, ok := pd.run(s); ok {
			pats = append(pats, pat)
		} else {
			untestable++
		}
	}
	return pats, untestable
}
