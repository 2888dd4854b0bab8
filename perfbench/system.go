package main

import (
	"fmt"
	"time"

	"multiverse/internal/core"
	"multiverse/internal/image"
	"multiverse/internal/telemetry"
)

// wedgeTimeout bounds every WaitExit/Join: a group whose exit
// notification is lost fails its check (core.ErrGroupWedged) well inside
// a run's time limit instead of hanging the run.
const wedgeTimeout = 20 * time.Second

// buildSystem is the set-up every workload times as core.build: the
// toolchain's fat binary (hybrid only), core.NewSystem and InitRuntime.
// It returns the System and the host seconds the set-up took.
func buildSystem(opts core.Options, log *spanLog) (*core.System, float64, error) {
	opts.WedgeTimeout = wedgeTimeout
	var sys *core.System
	var err error
	t0 := time.Now()
	log.around(spBuild, func() {
		var fat *image.Image
		if opts.Hybrid {
			fat, err = core.Build(core.BuildInput{
				App:        core.NewAppImage(opts.AppName),
				AeroKernel: core.NewAeroKernelImage(),
			})
			if err != nil {
				return
			}
		}
		if sys, err = core.NewSystem(fat, opts); err != nil {
			return
		}
		err = sys.InitRuntime()
	})
	if err != nil {
		return nil, 0, fmt.Errorf("build %s: %w", opts.AppName, err)
	}
	return sys, time.Since(t0).Seconds(), nil
}

// counters is a flat snapshot of a metrics registry: every counter by
// name, and every histogram as <name>.count and <name>.sum.
type counters map[string]float64

func snapshot(reg *telemetry.Registry) counters {
	c := counters{}
	reg.EachCounter(func(name string, v uint64) { c[name] = float64(v) })
	reg.EachHistogram(func(name string, h *telemetry.Histogram) {
		c[name+".count"] = float64(h.Count())
		c[name+".sum"] = float64(h.Sum())
	})
	return c
}

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// prefixSum sums every entry whose name starts with prefix.
func (c counters) prefixSum(prefix string) float64 {
	s := 0.0
	for k, v := range c {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			s += v
		}
	}
	return s
}
