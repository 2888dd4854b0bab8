// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads — clbg, storm or tenants (see README.md) — for a fixed
// host-time budget, checks every output, and prints the end-to-end
// metrics (untraced) or the per-layer metrics (traced) followed, as its
// last line, by one JSON object:
//
//	perfbench --workload storm --seed 1 --seconds 10 --trace 0
//
// Exit status is 0 only when every check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one seeded input set. pass builds fresh Systems, runs the
// inputs through them once and reports what it measured; log is nil on
// untraced passes. setup times one set-up of the Systems a pass builds,
// without running the inputs, and tears them down.
type workload interface {
	pass(log *spanLog) *passResult
	setup() (float64, error)
}

// A run times set-ups before its passes, at least setupReps of them and
// until setupSeconds have gone by; setup_s is their median. Each follows a
// forced collection, as every pass does, so no set-up overlaps a GC cycle
// another phase started.
const (
	setupReps    = 15
	setupSeconds = 1.0
)

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "clbg":
		return newCLBG(seed), nil
	case "storm":
		return newStorm(seed)
	case "tenants":
		return newTenants(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want clbg, storm or tenants)", name)
}

func main() {
	name := flag.String("workload", "", "workload to run: clbg, storm or tenants")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, budget time.Duration, traced bool) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	fig2, err := figure2Error()
	if err != nil {
		return err
	}
	var setups []float64
	for t0 := time.Now(); len(setups) < setupReps || time.Since(t0).Seconds() < setupSeconds; {
		runtime.GC()
		s, err := w.setup()
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	// Passes run until the next one would overrun the budget; a traced
	// run alternates untraced and traced passes so the two compare
	// under the same conditions. The first pass warms the heap and the
	// caches: its outputs are checked but its figures are not reported.
	epoch := time.Now()
	var plain, tracedPasses []*passResult
	var last *spanLog
	var v verdict
	for i := 0; ; i++ {
		useTrace := traced && i%2 == 1
		var log *spanLog
		if useTrace {
			log = newSpanLog(epoch)
		}
		p := measure(w, log)
		v.absorb(p.verdict)
		switch {
		case i == 0:
		case useTrace:
			tracedPasses = append(tracedPasses, p)
			last = log
		default:
			plain = append(plain, p)
		}
		elapsed := time.Since(epoch)
		perPass := elapsed / time.Duration(i+1)
		if elapsed+perPass > budget && len(plain) > 0 && (!traced || len(tracedPasses) > 0) {
			break
		}
	}

	var rep report
	if traced {
		checkFidelity(&v, plain, tracedPasses)
		perLayer(&rep, plain, tracedPasses)
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.tsv", name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := last.writeTSV(path); err != nil {
			return err
		}
		fmt.Printf("spans of the last traced pass: %s (%d spans)\n", path, len(last.spans))
	} else {
		endToEnd(&rep, plain, setups, fig2, v)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	res := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	for _, f := range v.failures {
		fmt.Println("FAIL:", f)
	}
	if res.Correct {
		for _, m := range rep.metrics {
			fmt.Printf("%-34s %14.6g %s\n", m.name, m.value, m.unit)
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checked operations failed", v.failed, v.attempted)
	}
	return nil
}

// measure runs one pass and adds the host-runtime figures: wall time less
// the pass's untimed work, bytes allocated, GC pause, and the live heap
// the pass's Systems hold: after a forced collection with them still
// referenced, less the live heap before the pass.
func measure(w workload, log *spanLog) *passResult {
	base := liveHeap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var root int32
	if log != nil {
		root = log.begin(spPass)
	}
	p := w.pass(log)
	p.check(p.probe.err == nil, "probe: %v", p.probe.err)
	if log != nil {
		log.end(root)
		p.spans = len(log.spans)
		p.self = log.selfTimes()
	}
	p.hostS = time.Since(t0).Seconds() - p.untimedS
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	p.heapBytes += liveHeap() - base
	runtime.KeepAlive(p.keep)
	p.keep = nil
	return p
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// checkFidelity fails the run when a traced pass's virtual outcome
// differs from the untraced one: the probe must observe, never perturb.
// clbg and storm must match exactly; tenants, whose cross-group cache
// invalidations follow host interleaving, within tenantsFidelity.
func checkFidelity(v *verdict, plain, traced []*passResult) {
	ref := plain[0]
	for _, t := range traced {
		if ref.fingerprint != "" {
			v.check(t.fingerprint == ref.fingerprint, "traced pass diverged from untraced: %q vs %q",
				t.fingerprint, ref.fingerprint)
			continue
		}
		rel := float64(t.virtual)/float64(ref.virtual) - 1
		v.check(rel < tenantsFidelity && rel > -tenantsFidelity,
			"traced pass virtual cycles %d vs untraced %d", t.virtual, ref.virtual)
	}
}

// tenantsFidelity is the relative virtual-cycle difference a traced
// tenants pass may show against an untraced one: the virtual_mcycles
// bound in BENCHMARK.json.
const tenantsFidelity = 0.02
