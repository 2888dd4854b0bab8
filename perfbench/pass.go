package main

import (
	"fmt"
	"time"

	"multiverse/internal/cycles"
)

// passResult is what one pass of a workload measured. Host figures are
// wall time on the benchmark's goroutines; virtual figures are read from
// the simulated clocks.
type passResult struct {
	hostS  float64 // the whole pass
	buildS float64 // core.build: fat binary + NewSystem + InitRuntime
	bootS  float64 // scheme.boot: NewEngine (clbg only)

	// virtual is the modelled runtime: the main clock of every System the
	// pass built, read at pass end, summed.
	virtual cycles.Cycles
	// The virtual cycles the driving clocks (main, or the spawners')
	// spent in set-up, in SpawnGroup and in WaitExit/Join; layers() sets
	// them against virtual.
	buildCycles, spawnCycles, joinCycles cycles.Cycles

	verdict

	groups      int
	groupNs     []int64 // spawn→join host latency per group
	spawnNs     int64   // host time inside SpawnGroup
	joinNs      int64   // host time waiting in WaitExit/Join
	leaked      int
	slowdown    float64 // Multiverse/Native virtual cycles, same inputs
	probe       *tap
	reg         counters
	reductions  uint64
	gcCollected uint64

	// fingerprint identifies the pass's virtual outcome (cycles and
	// outputs) for the traced-vs-untraced fidelity check.
	fingerprint string
	// keep holds the pass's Systems until the heap has been measured.
	keep []any
	// untimedS is host time inside the pass that is not the workload's:
	// heap measurements between runs. measure leaves it out of hostS.
	untimedS float64
	// heapBytes is the live heap the pass's Systems hold. A workload that
	// releases its Systems during the pass adds theirs here; measure adds
	// what is still held at the end.
	heapBytes int64

	// Host runtime, filled by measure.
	allocBytes, gcPauseNs uint64

	// Traced passes only: span count and self time per span name.
	spans int
	self  [nSpanNames]float64
}

func newPass() *passResult {
	return &passResult{probe: newTap(nil), reg: counters{}}
}

// untimed runs f and counts its host time as untimed.
func (p *passResult) untimed(f func()) {
	t0 := time.Now()
	f()
	p.untimedS += time.Since(t0).Seconds()
}

// verdict counts checked operations and keeps the first few failures.
type verdict struct {
	attempted, failed int
	failures          []string
}

// check records one attempted operation, failed unless ok.
func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.failed++
		if len(v.failures) < 8 {
			v.failures = append(v.failures, fmt.Sprintf(format, args...))
		}
	}
}

// absorb adds o's operations to v.
func (v *verdict) absorb(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	for _, f := range o.failures {
		if len(v.failures) < 8 {
			v.failures = append(v.failures, f)
		}
	}
}
