package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

// clbg runs the seven CLBG programs of Figure 13, each on a fresh System
// in the Native world and in the default Multiverse world, from one
// goroutine. The seed permutes the run order.
type clbg struct {
	order []clbgRun
}

type clbgRun struct {
	prog  bench.Program
	world core.World
}

const benchDir = "/bench"

func newCLBG(seed int64) *clbg {
	var order []clbgRun
	for _, p := range bench.Programs() {
		order = append(order, clbgRun{p, core.WorldNative}, clbgRun{p, core.WorldHRT})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &clbg{order: order}
}

// Each run starts on a collected heap, as a fresh process would: after it,
// the live heap its System holds is measured, untimed, and the System
// released.
func (w *clbg) pass(log *spanLog) *passResult {
	p := newPass()
	var base int64
	p.untimed(func() { base = liveHeap() })
	type outcome struct {
		cycles cycles.Cycles
		out    []byte
	}
	got := map[string]map[core.World]outcome{}
	var fp strings.Builder
	for i, r := range w.order {
		log.setReq(uint32(i + 1))
		c, out, err := w.run(r, p, log, false)
		p.untimed(func() {
			p.heapBytes += liveHeap() - base
			p.keep = nil
		})
		p.check(err == nil, "%s on %s: %v", r.prog.Name, r.world, err)
		if err != nil {
			continue
		}
		if got[r.prog.Name] == nil {
			got[r.prog.Name] = map[core.World]outcome{}
		}
		got[r.prog.Name][r.world] = outcome{c, out}
		h := fnv.New64a()
		h.Write(out)
		fmt.Fprintf(&fp, "%s/%s:%d:%x;", r.prog.Name, r.world, c, h.Sum64())
	}
	logRatio, n := 0.0, 0
	for _, prog := range bench.Programs() {
		nat, okN := got[prog.Name][core.WorldNative]
		mv, okM := got[prog.Name][core.WorldHRT]
		if !okN || !okM {
			continue
		}
		p.check(bytes.Equal(nat.out, mv.out), "%s: Native and Multiverse stdout differ (%d vs %d bytes)",
			prog.Name, len(nat.out), len(mv.out))
		logRatio += math.Log(float64(mv.cycles) / float64(nat.cycles))
		n++
	}
	if n > 0 {
		p.slowdown = math.Exp(logRatio / float64(n))
	}
	p.fingerprint = fp.String()
	return p
}

// setup times the set-up of every run of a pass: each System built and
// its engine booted, with no program run.
func (w *clbg) setup() (float64, error) {
	p := newPass()
	for _, r := range w.order {
		if _, _, err := w.run(r, p, nil, true); err != nil {
			return 0, err
		}
	}
	return p.buildS + p.bootS, nil
}

// run executes one program in one world on a fresh System, exactly as
// core.System.RunMain does, but with each phase timed on its own. With
// bootOnly the engine shuts down right after booting.
func (w *clbg) run(r clbgRun, p *passResult, log *spanLog, bootOnly bool) (cycles.Cycles, []byte, error) {
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		return 0, nil, err
	}
	path := benchDir + "/" + r.prog.Name + ".scm"
	if err := fs.MkdirAll(benchDir); err != nil {
		return 0, nil, err
	}
	if err := fs.WriteFile(path, []byte(r.prog.Source)); err != nil {
		return 0, nil, err
	}
	sys, buildS, err := buildSystem(core.Options{
		AppName: r.prog.Name, FS: fs, Hybrid: r.world == core.WorldHRT,
	}, log)
	if err != nil {
		return 0, nil, err
	}
	p.buildS += buildS
	mainClk := sys.Main.Clock
	p.buildCycles += mainClk.Now()

	guest := newTap(log.fork())
	var eng *scheme.Engine
	var runErr error
	app := func(env core.Env) uint64 {
		wenv, werr := wrapEnv(env, guest)
		if werr != nil {
			runErr = werr
			return 1
		}
		t0 := time.Now()
		guest.trace.around(spBoot, func() { eng, runErr = scheme.NewEngine(wenv) })
		p.bootS += time.Since(t0).Seconds()
		if runErr != nil {
			return 1
		}
		if bootOnly {
			eng.Shutdown()
			return 0
		}
		guest.trace.around(spRun, func() {
			if _, runErr = eng.RunFile(path); runErr == nil {
				eng.Shutdown()
			}
		})
		if runErr != nil {
			return 1
		}
		return 0
	}

	var code uint64
	if r.world == core.WorldHRT {
		code, err = spawnAndJoin(sys, app, p, log)
		if err != nil {
			return 0, nil, err
		}
	} else {
		code = app(sys.NativeEnv())
	}
	sys.ExitProcess(code)
	if r.world == core.WorldNative {
		// fwd_p* cover forwarded calls: only Multiverse calls cross.
		guest.fwd = nil
	}
	p.probe.merge(guest)
	log.adopt(guest.trace)
	p.keep = append(p.keep, sys)
	if runErr != nil {
		return 0, nil, runErr
	}
	if code != 0 {
		return 0, nil, fmt.Errorf("exit code %d", code)
	}
	p.reg.add(snapshot(sys.Metrics()))
	if eng != nil {
		p.reductions += eng.Interp().Reductions()
		p.gcCollected += eng.Interp().GC().Collections
	}
	out := sys.Proc.Stdout()
	if !bootOnly && !bytes.Contains(out, []byte(r.prog.Check)) {
		return 0, nil, fmt.Errorf("output check %q failed (%d bytes)", r.prog.Check, len(out))
	}
	c := mainClk.Now()
	p.virtual += c
	return c, out, nil
}

// spawnAndJoin runs app as one execution group created and joined from
// the System's main thread (the Incremental model's main()), timing the
// spawn and the join separately.
func spawnAndJoin(sys *core.System, app func(core.Env) uint64, p *passResult, log *spanLog) (uint64, error) {
	clk := sys.Main.Clock
	c0 := clk.Now()
	t0 := time.Now()
	var g *core.ExecutionGroup
	var err error
	log.around(spSpawn, func() { g, err = sys.SpawnGroup(clk, app) })
	t1 := time.Now()
	p.spawnNs += int64(t1.Sub(t0))
	p.spawnCycles += clk.Now() - c0
	if err != nil {
		return 0, err
	}
	c1 := clk.Now()
	var code uint64
	log.around(spJoin, func() { code, err = g.Join(sys.Main) })
	t2 := time.Now()
	p.joinNs += int64(t2.Sub(t1))
	p.joinCycles += clk.Now() - c1
	p.groups++
	p.groupNs = append(p.groupNs, int64(t2.Sub(t0)))
	return code, err
}
