package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"gpustl/internal/atpg"
	"gpustl/internal/circuits"
	"gpustl/internal/experiments"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
)

// paperParams returns the experiment parameters of paper-small: the
// seed-1 reproduction cmd/tables runs by default, whatever the workload
// seed. Other experiment seeds do measurably different amounts of work
// (the tables pass differs by up to a quarter between seeds 1-3), which
// would read as run-to-run spread.
func paperParams(tiny bool) (experiments.Params, string) {
	p := experiments.ParamsFor(experiments.Small)
	if !tiny {
		return p, "paper-small/small"
	}
	p.IMMSBs, p.MEMSBs, p.RANDSBs, p.CNTRLSections = 6, 6, 8, 3
	p.DUFaults, p.SPFaults, p.SFUFaults = 600, 800, 600
	p.ATPGSPFaults, p.ATPGSFUFaults, p.ATPGBlocks, p.ATPGKeepAll = 60, 60, 6, 1
	return p, "paper-small/tiny"
}

// runPaperSmall is one cold reproduction at experiments.ParamsFor(Small):
// BuildEnv (the set-up, dominated by ATPG), then Tables I-III and the
// STL summary, repeated on the built environment for the run's duration.
// A traced run replays BuildEnv step by step instead, so the atpg,
// circuits, fault and ptpgen rows are timed separately.
func runPaperSmall(b *bench) error {
	p, key := paperParams(b.cfg.tiny)
	var env *experiments.Env
	if b.tr == nil {
		// The set-up is BuildEnv, the largest cost of a reproduction,
		// plus the first tables pass on the built environment, which
		// runs about half again as long as the warm passes after it.
		// It runs twice and setup_s reports the median (= mean) of the
		// two; the timed passes below all start warm.
		var setups []float64
		for i := 0; i < 2; i++ {
			start := time.Now()
			e, err := experiments.BuildEnv(p)
			build := time.Since(start)
			if err != nil {
				b.gate.fail("%s: BuildEnv: %v", key, err)
				b.gate.done(false)
				return fmt.Errorf("BuildEnv: %w", err)
			}
			b.gate.done(checkEnv(b.gate, key, e.PTPs(), e.TPGENDropped, e.SFUIMMDropped))
			first, ok := tablesPass(b.gate, nil, e, key)
			b.gate.done(ok)
			setups = append(setups, (build + first).Seconds())
			env = e
		}
		b.set("setup_s", median(setups), "s")
	} else {
		e, err := replayBuildEnv(b, p, key)
		if err != nil {
			return err
		}
		env = e
	}

	// Tables I-III and the summary, one pass per operation. A traced run
	// alternates passes without spans, so the tracing overhead is the
	// ratio of the two medians.
	var passes, plain []float64
	deadline := time.Now().Add(b.cfg.seconds)
	for i := 0; len(passes) == 0 || time.Now().Before(deadline); i++ {
		if b.tr != nil && i%2 == 1 {
			b.tr.span(nil, plainRow, func(*obs.Span) error {
				d, ok := tablesPass(b.gate, nil, env, key)
				b.gate.done(ok)
				plain = append(plain, d.Seconds())
				return nil
			})
			continue
		}
		d, ok := tablesPass(b.gate, b.tr, env, key)
		b.gate.done(ok)
		passes = append(passes, d.Seconds())
	}
	if b.tr == nil {
		b.set("op_p50_ms", 1e3*median(passes), "ms")
		b.set("op_p90_ms", 1e3*quantile(passes, 0.9), "ms")
		b.set("ops_per_s", float64(len(passes))/sum(passes), "1/s")
		return nil
	}
	if len(plain) > 0 {
		b.set("bench.trace_overhead_ratio", median(passes)/median(plain)-1, "ratio")
	}
	return measureEngine(b, env.Cfg, []engineInput{
		{env.IMM, env.DU, env.DUFaults}, {env.MEM, env.DU, env.DUFaults},
		{env.CNTRL, env.DU, env.DUFaults}, {env.TPGEN, env.SP, env.SPFaults},
		{env.RAND, env.SP, env.SPFaults}, {env.SFUIMM, env.SFU, env.SFUFaults},
	})
}

// checkEnv gates a built environment: each PTP's bytes and the ATPG
// conversion losses.
func checkEnv(g *gate, key string, ptps []*stl.PTP, tpgenDropped, sfuimmDropped int) bool {
	ok := true
	for _, p := range ptps {
		var buf bytes.Buffer
		if err := stl.WritePTP(&buf, p); err != nil {
			g.fail("%s: encoding %s: %v", key, p.Name, err)
			ok = false
			continue
		}
		ok = g.check(key+"/env/"+p.Name, digest(buf.Bytes())) && ok
	}
	dropped := fmt.Sprintf("%d/%d", tpgenDropped, sfuimmDropped)
	return g.check(key+"/env/dropped", digest([]byte(dropped))) && ok
}

// tablesPass runs Tables I-III and the STL summary once and gates their
// rows, leaving out the wall-clock compaction-time column.
func tablesPass(g *gate, tr *tracing, env *experiments.Env, key string) (time.Duration, bool) {
	ok := true
	gateRows := func(name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			g.fail("%s: encoding %s: %v", key, name, err)
			ok = false
			return
		}
		ok = g.check(key+"/"+name, digest(data)) && ok
	}
	noTime := func(rows []experiments.CompactRow) []experiments.CompactRow {
		out := append([]experiments.CompactRow(nil), rows...)
		for i := range out {
			out[i].CompactionTime = 0
		}
		return out
	}
	var (
		t1     *experiments.TableIResult
		t2, t3 *experiments.CompactionResult
		sum    *experiments.STLSummaryResult
	)
	d, err := tr.timed(nil, "bench.tables", func(sp *obs.Span) error {
		steps := []struct {
			row string
			run func() error
		}{
			{"experiments.table1", func() (err error) { t1, err = experiments.TableI(env); return }},
			{"experiments.table2", func() (err error) { t2, err = experiments.TableII(env); return }},
			{"experiments.table3", func() (err error) { t3, err = experiments.TableIII(env); return }},
			{"experiments.summary", func() (err error) { sum, err = experiments.STLSummary(env, t2, t3); return }},
		}
		for _, s := range steps {
			if err := tr.span(sp, s.row, func(*obs.Span) error { return s.run() }); err != nil {
				return fmt.Errorf("%s: %w", s.row, err)
			}
		}
		return nil
	})
	if err != nil {
		g.fail("%s: %v", key, err)
		return d, false
	}
	gateRows("table1", t1.Rows)
	gateRows("table2", noTime(t2.Rows))
	gateRows("table3", noTime(t3.Rows))
	gateRows("summary", sum)
	return d, ok
}

// replayBuildEnv performs experiments.BuildEnv step by step, one span per
// layer call, and checks that the replay built exactly the PTPs BuildEnv
// builds (the same committed digests, dropped counts included). A replay
// that diverges fails the traced run.
func replayBuildEnv(b *bench, p experiments.Params, key string) (*experiments.Env, error) {
	tr := b.tr
	env := &experiments.Env{Params: p, Cfg: gpu.DefaultConfig()}
	var spRes, sfuRes *atpg.Result
	atpgOpt := func(seed int64, sample int) atpg.Options {
		o := atpg.DefaultOptions(seed)
		o.SampleFaults = sample
		o.RandomBlocks = p.ATPGBlocks
		o.KeepAllBlocks = p.ATPGKeepAll
		return o
	}
	steps := []struct {
		row string
		run func() error
	}{
		{"circuits.build", func() (err error) {
			if env.DU, err = circuits.Build(circuits.ModuleDU, 0); err != nil {
				return err
			}
			if env.SP, err = circuits.Build(circuits.ModuleSP, 0); err != nil {
				return err
			}
			env.SFU, err = circuits.Build(circuits.ModuleSFU, 0)
			return err
		}},
		{"fault.sample", func() error {
			env.DUFaults = sampleFaults(env.DU, p.DUFaults, p.Seed)
			env.SPFaults = sampleFaults(env.SP, p.SPFaults, p.Seed+1)
			env.SFUFaults = sampleFaults(env.SFU, p.SFUFaults, p.Seed+2)
			return nil
		}},
		{"ptpgen.gen", func() error {
			env.IMM = ptpgen.IMM(p.IMMSBs, p.Seed+10)
			env.MEM = ptpgen.MEM(p.MEMSBs, p.Seed+11)
			env.CNTRL = ptpgen.CNTRL(p.CNTRLSections, p.Seed+12)
			env.RAND = ptpgen.RAND(p.RANDSBs, p.Seed+13)
			return nil
		}},
		{"atpg.sp", func() error {
			spRes = atpg.Generate(env.SP, atpgOpt(p.Seed+20, p.ATPGSPFaults))
			return nil
		}},
		{"ptpgen.convert", func() error {
			env.TPGEN, env.TPGENDropped = ptpgen.TPGEN(spRes.Patterns, p.Seed+21)
			return nil
		}},
		{"atpg.sfu", func() error {
			sfuRes = atpg.Generate(env.SFU, atpgOpt(p.Seed+22, p.ATPGSFUFaults))
			return nil
		}},
		{"ptpgen.convert", func() error {
			env.SFUIMM, env.SFUIMMDropped = ptpgen.SFUIMM(sfuRes.Patterns, p.Seed+23)
			return nil
		}},
		{"ptpgen.validate", func() error {
			for _, ptp := range env.PTPs() {
				if err := ptp.Validate(); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	d, err := tr.timed(nil, "bench.setup", func(sp *obs.Span) error {
		for _, s := range steps {
			if err := tr.span(sp, s.row, func(*obs.Span) error { return s.run() }); err != nil {
				return fmt.Errorf("replaying BuildEnv at %s: %w", s.row, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ok := checkEnv(b.gate, key, env.PTPs(), env.TPGENDropped, env.SFUIMMDropped)
	b.gate.done(ok)
	if !ok {
		b.gate.fail("%s: the step-by-step BuildEnv replay diverged from experiments.BuildEnv", key)
	}
	b.set("setup_s", d.Seconds(), "s")
	det := spRes.PodemDet + sfuRes.PodemDet
	unt := spRes.Untestable + sfuRes.Untestable
	b.set("atpg.patterns", float64(len(spRes.Patterns)+len(sfuRes.Patterns)), "count")
	b.set("atpg.podem_detected", float64(det), "count")
	b.set("atpg.untestable", float64(unt), "count")
	if det+unt > 0 {
		b.set("atpg.podem_yield_ratio", float64(det)/float64(det+unt), "ratio")
	}
	b.set("ptpgen.convert_dropped", float64(env.TPGENDropped+env.SFUIMMDropped), "count")
	return env, nil
}

// sampleFaults is the fault-list sampling of BuildEnv and NewModuleSet.
func sampleFaults(m *circuits.Module, n int, seed int64) []fault.Fault {
	c := fault.NewCampaign(m)
	if n > 0 {
		c.SampleFaults(n, seed)
	}
	return c.Faults()
}

// engineInput is one PTP with the module and fault list it targets.
type engineInput struct {
	ptp    *stl.PTP
	module *circuits.Module
	faults []fault.Fault
}

// measureEngine times the gpu/trace, fault and netlist layers directly,
// outside the workload's own calls: each PTP runs once on the simulated
// GPU with pattern extraction, its pattern stream is fault-simulated
// against a fresh campaign over the same fault list, and the compiled
// evaluation structures are built on fresh module netlists.
func measureEngine(b *bench, cfg gpu.Config, inputs []engineInput) error {
	tr := b.tr
	var cycles, patterns uint64
	var stats fault.SimStats
	err := tr.span(nil, "bench.engine", func(sp *obs.Span) error {
		for _, in := range inputs {
			col := trace.NewCollector(in.ptp.Target)
			col.LiteRows = true
			var res gpu.Result
			if err := tr.span(sp, "gpu.run", func(*obs.Span) error {
				g, err := gpu.New(cfg, col)
				if err != nil {
					return err
				}
				res, err = g.Run(gpu.Kernel{
					Prog:            in.ptp.Prog,
					Blocks:          in.ptp.Kernel.Blocks,
					ThreadsPerBlock: in.ptp.Kernel.ThreadsPerBlock,
					GlobalBase:      in.ptp.Data.Base,
					GlobalData:      in.ptp.Data.Words,
				})
				return err
			}); err != nil {
				return fmt.Errorf("running %s: %w", in.ptp.Name, err)
			}
			cycles += res.Cycles
			patterns += uint64(len(col.Patterns))
			camp := fault.NewCampaignWithFaults(in.module, in.faults)
			if err := tr.span(sp, "fault.sim", func(*obs.Span) error {
				_, err := camp.SimulateCtx(context.Background(), col.Patterns, fault.SimOptions{Workers: 1})
				return err
			}); err != nil {
				return fmt.Errorf("fault-simulating %s: %w", in.ptp.Name, err)
			}
			stats.Add(camp.Stats())
		}
		seen := map[circuits.ModuleKind]bool{}
		for _, in := range inputs {
			if seen[in.module.Kind] {
				continue
			}
			seen[in.module.Kind] = true
			var m *circuits.Module
			if err := tr.span(sp, "circuits.fresh", func(*obs.Span) (err error) {
				m, err = circuits.Build(in.module.Kind, 0)
				return err
			}); err != nil {
				return err
			}
			tr.span(sp, "netlist.compile", func(*obs.Span) error {
				m.NL.Plan()
				m.NL.Cone()
				m.NL.StemCones()
				return nil
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("gpu.sim_cycles", float64(cycles), "count")
	b.set("trace.patterns", float64(patterns), "count")
	b.set("fault.fault_evals", float64(stats.FaultEvals), "count")
	b.set("fault.blocks", float64(stats.Blocks), "count")
	b.set("fault.dedup_hit_ratio", stats.DedupHitRate(), "ratio")
	b.set("fault.cone_skip_ratio", stats.ConeSkipRatio(), "ratio")
	b.set("fault.prescreen_skip_ratio", stats.PrescreenSkipRatio(), "ratio")
	return nil
}
