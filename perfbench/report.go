package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"multiverse/internal/bench"
	"multiverse/internal/linuxabi"
)

type metric struct {
	name, unit string
	value      float64
}

// report is the ordered metric list a run prints, plus note lines.
type report struct {
	metrics []metric
	notes   []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// quantile adds an exact quantile over xs as a metric, and notes the
// sample count. With fewer than minBeyond samples above it, fallback is
// reported instead, under the same name.
func (r *report) quantile(name, unit string, xs []float64, p float64, fallback func() (float64, string)) {
	q := quantileOf(xs, p)
	if q.n == 0 {
		r.note("quantile %s: no samples", name)
		r.add(name, unit, 0)
		return
	}
	if q.ok {
		r.note("quantile %s: %s", name, q)
		r.add(name, unit, q.value)
		return
	}
	v, what := fallback()
	r.note("quantile %s: %d samples, fewer than %d beyond p%g; reporting %s", name, q.n, minBeyond, 100*p, what)
	r.add(name, unit, v)
}

// groupQuantile is the exact spawn→join quantile, in ms, over the groups
// of every pass of the run. Too few groups for it (clbg runs seven a
// pass, storm one) fall back to the median over passes of each pass's
// slowest group.
func (r *report) groupQuantile(name string, ps []*passResult, q float64) {
	var ms []float64
	for _, p := range ps {
		for _, ns := range p.groupNs {
			ms = append(ms, float64(ns)/1e6)
		}
	}
	r.quantile(name, "ms", ms, q, func() (float64, string) {
		return medianOf(ps, func(p *passResult) float64 {
			slowest := int64(0)
			for _, ns := range p.groupNs {
				slowest = max(slowest, ns)
			}
			return float64(slowest) / 1e6
		}), "the median over passes of each pass's slowest group"
	})
}

// medianOf is the median over passes of f.
func medianOf(ps []*passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEnd adds the metrics a user of the system sees, from untraced
// passes. Every figure is a median over the run's passes, or a quantile
// over the samples of all of them, so that a burst of other load on the
// machine moves it little.
func endToEnd(r *report, ps []*passResult, setups []float64, fig2 float64, v verdict) {
	hs := make([]string, len(ps))
	var fwd []float64
	for i, p := range ps {
		hs[i] = fmt.Sprintf("%.3f", p.hostS)
		for _, c := range p.probe.fwd {
			fwd = append(fwd, float64(c))
		}
	}
	r.note("passes: %d (host s: %s), set-ups timed: %d", len(ps), strings.Join(hs, " "), len(setups))
	r.add("setup_s", "s", median(setups))
	r.add("simspeed_mcps", "Mcycles/s", medianOf(ps, func(p *passResult) float64 { return float64(p.virtual) / 1e6 / p.hostS }))
	r.add("calls_per_s", "1/s", medianOf(ps, func(p *passResult) float64 { return float64(p.probe.syscalls().calls) / p.hostS }))
	r.add("groups_per_s", "1/s", medianOf(ps, func(p *passResult) float64 { return float64(p.groups) / p.hostS }))
	r.groupQuantile("group_p50_ms", ps, 0.50)
	r.groupQuantile("group_p99_ms", ps, 0.99)
	r.add("virtual_mcycles", "Mcycles", medianOf(ps, func(p *passResult) float64 { return float64(p.virtual) / 1e6 }))
	r.add("mv_slowdown", "ratio", medianOf(ps, func(p *passResult) float64 { return p.slowdown }))
	fwdMax := func() (float64, string) { return fwd[len(fwd)-1], "the largest sample" }
	r.quantile("fwd_p50_cycles", "cycles", fwd, 0.50, fwdMax)
	r.quantile("fwd_p99_cycles", "cycles", fwd, 0.99, fwdMax)
	r.add("fig2_err_pct", "%", fig2)
	r.add("alloc_mb", "MB", medianOf(ps, func(p *passResult) float64 { return float64(p.allocBytes) / 1e6 }))
	r.add("heap_retained_mb", "MB", medianOf(ps, func(p *passResult) float64 { return float64(p.heapBytes) / 1e6 }))
	r.add("ok_ratio", "ratio", 1-float64(v.failed)/float64(v.attempted))
}

// layerKinds are the syscall kinds reported one by one.
var layerKinds = []linuxabi.Sysno{
	linuxabi.SysGetpid, linuxabi.SysStat, linuxabi.SysFstat, linuxabi.SysLseek, linuxabi.SysRead,
	linuxabi.SysWrite, linuxabi.SysMmap, linuxabi.SysMunmap, linuxabi.SysBrk,
}

// perLayer adds the per-layer metrics of a traced run: each is the median
// over the traced passes, except the tracing overhead (median traced
// pass over median untraced pass) and the GC pause, which come from the
// untraced passes run alongside.
func perLayer(r *report, plain, traced []*passResult) {
	var names []string
	units := map[string]string{}
	vals := map[string][]float64{}
	for _, p := range traced {
		var one report
		layers(&one, p)
		for _, m := range one.metrics {
			if _, ok := units[m.name]; !ok {
				names = append(names, m.name)
				units[m.name] = m.unit
			}
			vals[m.name] = append(vals[m.name], m.value)
		}
		if p == traced[len(traced)-1] {
			r.notes = append(r.notes, one.notes...)
		}
	}
	for _, n := range names {
		r.add(n, units[n], median(vals[n]))
	}
	hostS := func(p *passResult) float64 { return p.hostS }
	plainS, tracedS := medianOf(plain, hostS), medianOf(traced, hostS)
	r.note("passes: %d untraced (median %.3f s), %d traced (median %.3f s)", len(plain), plainS, len(traced), tracedS)
	r.add("trace.overhead_pct", "%", 100*(tracedS/plainS-1))
	r.add("go.gc_pause_s", "s", medianOf(plain, func(p *passResult) float64 { return float64(p.gcPauseNs) / 1e9 }))
}

// layers computes one traced pass's per-layer metrics.
func layers(r *report, p *passResult) {
	t := p.probe
	reg := p.reg
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}

	// scheme: the guest runtime.
	r.add("scheme.self_s", "s", p.self[spRun])
	nsPerRed := 0.0
	if p.reductions > 0 {
		nsPerRed = p.self[spRun] * 1e9 / float64(p.reductions)
	}
	r.add("scheme.ns_per_reduction", "ns", nsPerRed)
	r.add("scheme.boot_s", "s", p.bootS)
	r.add("scheme.compute_mcycles", "Mcycles", float64(t.other[kCompute].cycles)/1e6)
	r.add("scheme.reductions", "count", float64(p.reductions))
	r.add("scheme.gc_collections", "count", float64(p.gcCollected))

	// core: construction, spawn, join, the warm pool.
	r.add("core.build_s", "s", p.buildS)
	r.add("core.self_s", "s", p.self[spBuild]+p.self[spSpawn])
	r.add("core.spawn_s", "s", float64(p.spawnNs)/1e9)
	spawnCycles := 0.0
	if p.groups > 0 {
		spawnCycles = float64(p.spawnCycles) / float64(p.groups)
	}
	r.add("core.spawn_cycles", "cycles", spawnCycles)
	r.add("core.join_wait_s", "s", float64(p.joinNs)/1e9)
	r.add("core.warm_hit_ratio", "ratio", ratio(reg["density.warm.hits"], reg["density.warm.misses"]))
	r.add("core.groups_leaked", "count", float64(p.leaked))

	// The boundary, timed at Env.Syscall.
	sc := t.syscalls()
	host := make([]float64, len(t.hostNs))
	for i, ns := range t.hostNs {
		host[i] = float64(ns) / 1e3
	}
	r.add("boundary.calls", "count", float64(sc.calls))
	r.add("boundary.host_s", "s", float64(sc.hostNs)/1e9)
	hostMax := func() (float64, string) { return host[len(host)-1], "the largest sample" }
	r.quantile("boundary.host_p50_us", "us", host, 0.50, hostMax)
	r.quantile("boundary.host_p99_us", "us", host, 0.99, hostMax)
	r.add("boundary.mcycles", "Mcycles", float64(sc.cycles)/1e6)
	for _, k := range layerKinds {
		s := t.sys[uint8(k)]
		r.add("syscall."+k.String()+".calls", "count", float64(s.calls))
		r.add("syscall."+k.String()+".host_s", "s", float64(s.hostNs)/1e9)
		r.add("syscall."+k.String()+".cycles", "cycles", float64(s.cycles))
	}

	// hvm: router tiers, transports and exits, from the registry.
	r.add("hvm.tier0_hits", "count", reg["router.local_hits"])
	r.add("hvm.tier1_hits", "count", reg["router.cache_hits"])
	r.add("hvm.tier1_misses", "count", reg["router.cache_misses"])
	r.add("hvm.tier1_hit_ratio", "ratio", ratio(reg["router.cache_hits"], reg["router.cache_misses"]))
	r.add("hvm.invalidations", "count", reg["router.cache_invalidations"])
	r.add("hvm.tier2_async", "count", reg["forward.syscall.latency.count"])
	r.add("hvm.tier2_sync", "count", reg["sync.syscall.latency.count"])
	r.add("hvm.tier3_ring", "count", reg["ring.syscall.latency.count"])
	r.add("hvm.promotions", "count", reg["router.promotions"]+reg["router.tier3.promotions"])
	r.add("hvm.demotions", "count", reg["router.demotions"]+reg["router.tier3.demotions"])
	r.add("hvm.exits", "count", reg.prefixSum("exits."))
	r.add("hvm.retransmits", "count", reg["faults.retransmit"])
	r.add("hvm.async_mcycles", "Mcycles", reg["forward.syscall.latency.sum"]/1e6)
	r.add("hvm.sync_mcycles", "Mcycles", reg["sync.syscall.latency.sum"]/1e6)
	r.add("hvm.ring_mcycles", "Mcycles", reg["ring.syscall.latency.sum"]/1e6)

	// paging / machine / aerokernel, seen through Env.Touch and the
	// registry.
	r.add("touch.calls", "count", float64(t.other[kTouch].calls))
	r.add("touch.host_s", "s", float64(t.other[kTouch].hostNs)/1e9)
	r.add("touch.mcycles", "Mcycles", float64(t.other[kTouch].cycles)/1e6)
	r.add("vdso.calls", "count", float64(t.other[kVDSO].calls))
	r.add("timer.calls", "count", float64(t.other[kTimer].calls))
	r.add("timer.host_s", "s", float64(t.other[kTimer].hostNs)/1e9)
	r.add("compute.calls", "count", float64(t.other[kCompute].calls))
	r.add("aerokernel.fwd_syscalls", "count", reg["ak.forwarded_syscalls"])
	r.add("aerokernel.fwd_faults", "count", reg["ak.forwarded_faults"])
	r.add("aerokernel.merges", "count", reg["ak.merges"])
	r.add("paging.pml4_copied", "count", reg["paging.pml4_entries_copied"])
	r.add("merger.delta_entries", "count", reg["merger.delta.entries"])
	r.add("fault.local", "count", reg["fault.local"])

	// The bench harness's own share, and what tracing recorded.
	r.add("bench.self_s", "s", p.self[spPass]+p.self[spGroup]-p.untimedS)
	r.add("trace.spans", "count", float64(p.spans))

	// Virtual-cycle conservation, seen from outside: the main clocks'
	// total against what set-up, spawn and the guests' Env calls charged.
	// The remainder is the waiting column: clocks synchronizing to other
	// clocks at join, thread hand-offs, and process exit. Groups that
	// overlap in virtual time (tenants) make it negative.
	var env uint64
	for _, o := range t.other {
		env += o.cycles
	}
	env += sc.cycles
	r.add("virtual.total_mcycles", "Mcycles", float64(p.virtual)/1e6)
	r.add("virtual.build_mcycles", "Mcycles", float64(p.buildCycles)/1e6)
	r.add("virtual.spawn_mcycles", "Mcycles", float64(p.spawnCycles)/1e6)
	r.add("virtual.join_mcycles", "Mcycles", float64(p.joinCycles)/1e6)
	r.add("virtual.env_mcycles", "Mcycles", float64(env)/1e6)
	r.add("virtual.unattributed_mcycles", "Mcycles",
		(float64(p.virtual)-float64(p.buildCycles)-float64(p.spawnCycles)-float64(env))/1e6)
}

// figure2Paper are the paper's Figure 2 latencies (EXPERIMENTS.md), in
// the row order bench.Figure2 prints: merger, async call, sync call on
// the other socket, sync call on the same socket.
var figure2Paper = []float64{33_000, 25_000, 1_060, 790}

// figure2Error is the worst relative error, in percent, of the modelled
// Figure 2 latencies against the paper's.
func figure2Error() (float64, error) {
	t, err := bench.Figure2(10)
	if err != nil {
		return 0, err
	}
	if len(t.Rows) != len(figure2Paper) {
		return 0, fmt.Errorf("figure 2: %d rows, want %d", len(t.Rows), len(figure2Paper))
	}
	worst := 0.0
	for i, row := range t.Rows {
		v, err := strconv.ParseFloat(strings.TrimPrefix(row[1], "~"), 64)
		if err != nil {
			return 0, fmt.Errorf("figure 2 row %q: %w", row[0], err)
		}
		worst = math.Max(worst, 100*math.Abs(v-figure2Paper[i])/figure2Paper[i])
	}
	return worst, nil
}
