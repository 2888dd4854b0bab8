package main

import (
	"fmt"

	"multiverse/internal/aerokernel"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/ros"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
)

// The probe is the benchmark's only view into a guest: a core.Env wrapper
// that times every call the guest makes into the layers below it. An
// untraced probe records only each Env.Syscall's virtual latency (the
// exact fwd_p* quantiles); a traced probe also stamps host time and keeps
// one span per call.

// callKind names the non-syscall Env methods the probe times.
type callKind uint8

const (
	kCompute callKind = iota
	kTouch
	kVDSO
	kTimer
	kPthread
	nKinds
)

// callStat aggregates one kind of call: how many, host time inside them,
// and the virtual cycles they charged to the calling clock.
type callStat struct {
	calls  uint64
	hostNs int64
	cycles uint64
}

func (s *callStat) add(o callStat) {
	s.calls += o.calls
	s.hostNs += o.hostNs
	s.cycles += o.cycles
}

// tap is what one guest context observed. It is owned by one goroutine at
// a time: a child thread gets its own tap, merged into the parent's when
// the parent joins it.
type tap struct {
	trace *spanLog // nil when untraced

	sys   [256]callStat // Env.Syscall, by syscall number
	other [nKinds]callStat
	// fwd holds every Env.Syscall's virtual latency, in call order.
	fwd []cycles.Cycles
	// hostNs holds every Env.Syscall's host latency (traced only).
	hostNs []int64
	// err is the first Env the probe could not wrap.
	err error
	// children are taps of threads the guest created and joined.
	children []*tap
}

func newTap(trace *spanLog) *tap { return &tap{trace: trace} }

// merge folds o into t.
func (t *tap) merge(o *tap) {
	for i := range t.sys {
		t.sys[i].add(o.sys[i])
	}
	for i := range t.other {
		t.other[i].add(o.other[i])
	}
	t.fwd = append(t.fwd, o.fwd...)
	t.hostNs = append(t.hostNs, o.hostNs...)
	if t.err == nil {
		t.err = o.err
	}
	for _, c := range o.children {
		t.merge(c)
	}
}

// syscalls sums the per-number syscall stats.
func (t *tap) syscalls() callStat {
	var s callStat
	for i := range t.sys {
		s.add(t.sys[i])
	}
	return s
}

// ---- The wrapper -------------------------------------------------------

type scoped interface {
	TelemetryScope() telemetry.Scope
}

// hrtSurface is the full optional surface an HRT Env offers the layers
// above it.
type hrtSurface interface {
	scoped
	scheme.AKMemory
	scheme.UserFaultLane
	core.SchedulerHost
}

// wrapEnv returns inner wrapped by a probe that reports to t. The wrapper
// forwards exactly the optional interfaces inner has — none, the
// telemetry scope (ROS threads), or the full HRT surface — because the
// guest picks its code paths by type assertion: a wrapper that hid or
// added a capability would change what it measures.
func wrapEnv(inner core.Env, t *tap) (core.Env, error) {
	_, hasScope := inner.(scoped)
	_, hasAK := inner.(scheme.AKCaller)
	_, hasAKMem := inner.(scheme.AKMemory)
	_, hasLane := inner.(scheme.UserFaultLane)
	_, hasSched := inner.(core.SchedulerHost)
	base := probeEnv{inner: inner, t: t}
	switch {
	case !hasScope && !hasAK && !hasAKMem && !hasLane && !hasSched:
		return &base, nil
	case hasScope && !hasAK && !hasAKMem && !hasLane && !hasSched:
		return &scopedProbe{base}, nil
	case hasScope && hasAK && hasAKMem && hasLane && hasSched:
		return &hrtProbe{scopedProbe{base}}, nil
	}
	return nil, fmt.Errorf("probe: %T has an optional-interface set the probe cannot mirror "+
		"(scope=%v akcall=%v akmem=%v lane=%v sched=%v)", inner, hasScope, hasAK, hasAKMem, hasLane, hasSched)
}

// probeEnv times the core.Env methods.
type probeEnv struct {
	inner core.Env
	t     *tap
}

func (e *probeEnv) World() core.World     { return e.inner.World() }
func (e *probeEnv) Clock() *cycles.Clock  { return e.inner.Clock() }
func (e *probeEnv) Process() *ros.Process { return e.inner.Process() }

func (e *probeEnv) RegisterSignalCode(addr uint64, fn func(*ros.SignalContext)) {
	e.inner.RegisterSignalCode(addr, fn)
}

// timed runs fn as one call of kind k and books it to st.
func (e *probeEnv) timed(st *callStat, span spanName, fn func()) cycles.Cycles {
	clk := e.inner.Clock()
	v0 := clk.Now()
	if log := e.t.trace; log != nil {
		id := log.begin(span)
		fn()
		st.hostNs += log.end(id)
	} else {
		fn()
	}
	d := clk.Now() - v0
	st.calls++
	st.cycles += uint64(d)
	return d
}

func (e *probeEnv) Compute(c cycles.Cycles) {
	e.timed(&e.t.other[kCompute], spCompute, func() { e.inner.Compute(c) })
}

func (e *probeEnv) Syscall(call linuxabi.Call) linuxabi.Result {
	var res linuxabi.Result
	st := &e.t.sys[uint8(call.Num)]
	h0 := st.hostNs
	lat := e.timed(st, spSyscall, func() { res = e.inner.Syscall(call) })
	e.t.fwd = append(e.t.fwd, lat)
	if e.t.trace != nil {
		e.t.hostNs = append(e.t.hostNs, st.hostNs-h0)
	}
	return res
}

func (e *probeEnv) VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	var v uint64
	var errno linuxabi.Errno
	e.timed(&e.t.other[kVDSO], spVDSO, func() { v, errno = e.inner.VDSO(num) })
	return v, errno
}

func (e *probeEnv) Touch(addr uint64, write bool) error {
	var err error
	e.timed(&e.t.other[kTouch], spTouch, func() { err = e.inner.Touch(addr, write) })
	return err
}

func (e *probeEnv) CheckTimer() bool {
	var fired bool
	e.timed(&e.t.other[kTimer], spTimer, func() { fired = e.inner.CheckTimer() })
	return fired
}

// PthreadCreate gives the child thread its own tap (it runs on another
// goroutine) and folds it into this one when the guest joins the child.
func (e *probeEnv) PthreadCreate(fn func(core.Env)) (core.PthreadJoin, error) {
	child := newTap(e.t.trace.fork())
	var join core.PthreadJoin
	var err error
	e.timed(&e.t.other[kPthread], spPthread, func() {
		join, err = e.inner.PthreadCreate(func(inner core.Env) {
			wrapped, werr := wrapEnv(inner, child)
			if werr != nil {
				child.err = werr
				return
			}
			fn(wrapped)
		})
	})
	if err != nil {
		return nil, err
	}
	return func() uint64 {
		code := join()
		e.t.children = append(e.t.children, child)
		e.t.trace.adopt(child.trace)
		return code
	}, nil
}

// scopedProbe adds the telemetry scope ROS and HRT threads expose.
type scopedProbe struct{ probeEnv }

func (e *scopedProbe) TelemetryScope() telemetry.Scope {
	return e.inner.(scoped).TelemetryScope()
}

// hrtProbe adds the HRT-only capabilities.
type hrtProbe struct{ scopedProbe }

func (e *hrtProbe) AKCall(symbol string, args ...uint64) (uint64, error) {
	return e.inner.(hrtSurface).AKCall(symbol, args...)
}

func (e *hrtProbe) RegisterAKMemFaultHandler(h func(addr uint64, write bool) bool) {
	e.inner.(hrtSurface).RegisterAKMemFaultHandler(h)
}

func (e *hrtProbe) RegisterUserFaultHandler(h func(addr uint64, write bool) bool) bool {
	return e.inner.(hrtSurface).RegisterUserFaultHandler(h)
}

func (e *hrtProbe) UserProtect(addr, length uint64, writable bool) bool {
	return e.inner.(hrtSurface).UserProtect(addr, length, writable)
}

func (e *hrtProbe) Scheduler() *aerokernel.Scheduler {
	return e.inner.(hrtSurface).Scheduler()
}

// SpawnWorkerEnv forwards unwrapped: legion drives worker contexts from
// its own executor, outside the calling guest's span tree.
func (e *hrtProbe) SpawnWorkerEnv() (core.Env, machine.CoreID, func(), error) {
	return e.inner.(hrtSurface).SpawnWorkerEnv()
}
