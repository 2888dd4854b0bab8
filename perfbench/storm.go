package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/vfs"
)

// storm replays a seeded stream of boundary calls from one long-lived
// execution group under the full boundary stack (router, exitless rings,
// incremental merger), as a closed loop with one call outstanding. No
// interpreter runs: the layers below the guest do all the work.
type storm struct {
	files  []stormFile
	ops    []stormOp
	native cycles.Cycles // Env.Syscall cycles of the same stream in the Native world
}

const (
	stormCalls   = 200_000
	stormReaders = 4 // read-only files; file index stormReaders is the written one
	stormBufLen  = 64 << 10
	stormMaxIO   = 4096
	stormFileLen = 16 << 10
)

type stormFile struct {
	path string
	data []byte
}

type stormKind uint8

const (
	opGetpid stormKind = iota
	opStat
	opFstat
	opLseekCur
	opRead
	opWrite
	opLseekSet
	opStatWritten
)

// stormOp is one call with its expected outcome, computed by the
// generator's model of the file state.
type stormOp struct {
	kind stormKind
	file int    // file index (stat/fstat/lseek/read/write)
	n    uint64 // read/write length, seek offset
	want uint64 // Ret, or st_size for stat/fstat
	at   uint64 // read: file offset the returned bytes start at
}

func newStorm(seed int64) (*storm, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &storm{}
	for i := 0; i <= stormReaders; i++ {
		f := stormFile{path: fmt.Sprintf("/data/f%d", i)}
		if i < stormReaders {
			f.data = make([]byte, stormFileLen)
			rng.Read(f.data)
		}
		w.files = append(w.files, f)
	}

	// The seed orders a fixed mix, so every seed does the same amount of
	// each kind of work: 90% reads, evenly over five kinds, and 10%
	// mutations, evenly over three. Writes always append (the written
	// file starts empty and is only repositioned to its end), with a
	// fixed multiset of lengths.
	kinds := make([]stormKind, 0, stormCalls)
	for i := 0; i < stormCalls*9/10; i++ {
		kinds = append(kinds, stormKind(i%5))
	}
	for i := 0; len(kinds) < stormCalls; i++ {
		kinds = append(kinds, opWrite+stormKind(i%3))
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var lens []uint64
	for i := 0; i < stormCalls/10; i++ {
		lens = append(lens, uint64(16+i%497))
	}
	rng.Shuffle(len(lens), func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })

	wr := stormReaders
	size := make([]uint64, len(w.files))
	pos := make([]uint64, len(w.files))
	for i, f := range w.files {
		size[i] = uint64(len(f.data))
	}
	for _, kind := range kinds {
		op := stormOp{kind: kind, file: rng.Intn(len(w.files))}
		switch kind {
		case opStat, opFstat:
			op.want = size[op.file]
		case opLseekCur:
			op.want = pos[op.file]
		case opRead:
			op.file = rng.Intn(stormReaders)
			op.n = uint64(64 + rng.Intn(stormMaxIO-64))
			op.at = pos[op.file]
			op.want = min(op.n, size[op.file]-pos[op.file])
			pos[op.file] += op.want
		case opWrite:
			op.file = wr
			op.n, lens = lens[0], lens[1:]
			op.want = op.n
			pos[wr] += op.n
			size[wr] = pos[wr]
		case opLseekSet:
			if op.file == wr {
				op.n = size[wr]
			} else {
				op.n = uint64(rng.Int63n(int64(size[op.file]) + 1))
			}
			op.want = op.n
			pos[op.file] = op.n
		case opStatWritten:
			op.file = wr
			op.want = size[wr]
		}
		w.ops = append(w.ops, op)
	}

	// The Native-world reference: the same stream against a plain ROS
	// process, for mv_slowdown.
	sys, _, err := buildSystem(core.Options{AppName: "storm-native", FS: w.fs()}, nil)
	if err != nil {
		return nil, err
	}
	t := newTap(nil)
	env, err := wrapEnv(sys.NativeEnv(), t)
	if err != nil {
		return nil, err
	}
	var res stormResult
	w.replay(env, &res)
	sys.ExitProcess(0)
	if res.failed > 0 {
		return nil, fmt.Errorf("storm: native reference: %d of %d calls wrong: %v", res.failed, res.attempted, res.failures)
	}
	w.native = sumCycles(t.fwd)
	return w, nil
}

func (w *storm) fs() *vfs.FS {
	fs := vfs.New()
	_ = fs.MkdirAll("/data")
	for _, f := range w.files {
		_ = fs.WriteFile(f.path, f.data)
	}
	return fs
}

// stormResult is the replay's own verdict, filled on the guest goroutine.
type stormResult struct {
	verdict
	finalSize uint64
}

// replay sends the stream through env and checks every result.
func (w *storm) replay(env core.Env, r *stormResult) {
	pid := uint64(env.Process().Pid())
	fds := make([]uint64, len(w.files))
	for i, f := range w.files {
		flags := uint64(linuxabi.ORdonly)
		if i == stormReaders {
			flags = linuxabi.ORdwr
		}
		res := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: f.path, Args: [6]uint64{0, flags}})
		r.check(res.Ok(), "open %s: %v", f.path, res.Err)
		fds[i] = res.Ret
	}
	res := env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{
		0, stormBufLen, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
	r.check(res.Ok() && res.Ret != 0, "mmap: %v", res.Err)
	buf := res.Ret
	payload := bytes.Repeat([]byte("storm-write."), 64)

	for i, op := range w.ops {
		var call linuxabi.Call
		switch op.kind {
		case opGetpid:
			call = linuxabi.Call{Num: linuxabi.SysGetpid}
		case opStat, opStatWritten:
			call = linuxabi.Call{Num: linuxabi.SysStat, Path: w.files[op.file].path}
		case opFstat:
			call = linuxabi.Call{Num: linuxabi.SysFstat, Args: [6]uint64{fds[op.file]}}
		case opLseekCur:
			call = linuxabi.Call{Num: linuxabi.SysLseek, Args: [6]uint64{fds[op.file], 0, linuxabi.SeekCur}}
		case opLseekSet:
			call = linuxabi.Call{Num: linuxabi.SysLseek, Args: [6]uint64{fds[op.file], op.n, linuxabi.SeekSet}}
		case opRead:
			call = linuxabi.Call{Num: linuxabi.SysRead, Args: [6]uint64{fds[op.file], buf, op.n}}
		case opWrite:
			call = linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{fds[op.file], buf, op.n}, Data: payload[:op.n]}
		}
		res := env.Syscall(call)
		if !res.Ok() {
			r.check(false, "call %d (%s): %v", i, call.Num, res.Err)
			continue
		}
		switch op.kind {
		case opGetpid:
			r.check(res.Ret == pid, "call %d getpid = %d, want %d", i, res.Ret, pid)
		case opStat, opStatWritten, opFstat:
			st, ok := linuxabi.DecodeStat(res.Data)
			r.check(ok && st.Size == op.want, "call %d %s size = %d, want %d", i, call.Num, st.Size, op.want)
		case opRead:
			want := w.files[op.file].data[op.at : op.at+op.want]
			r.check(res.Ret == op.want && bytes.Equal(res.Data, want),
				"call %d read %d bytes at %d, want %d", i, res.Ret, op.at, op.want)
		default:
			r.check(res.Ret == op.want, "call %d %s = %d, want %d", i, call.Num, res.Ret, op.want)
		}
	}
	res = env.Syscall(linuxabi.Call{Num: linuxabi.SysFstat, Args: [6]uint64{fds[stormReaders]}})
	st, _ := linuxabi.DecodeStat(res.Data)
	r.finalSize = st.Size
}

// setup times one set-up of the workload's System and tears it down.
func (w *storm) setup() (float64, error) {
	sys, s, err := w.build(nil)
	if err != nil {
		return 0, err
	}
	sys.ExitProcess(0)
	return s, nil
}

func (w *storm) build(log *spanLog) (*core.System, float64, error) {
	return buildSystem(core.Options{
		AppName: "storm", FS: w.fs(), Hybrid: true, Router: true, Exitless: true, Merger: true,
	}, log)
}

func (w *storm) pass(log *spanLog) *passResult {
	p := newPass()
	sys, buildS, err := w.build(log)
	p.check(err == nil, "storm: %v", err)
	if err != nil {
		return p
	}
	p.buildS = buildS
	p.buildCycles = sys.Main.Clock.Now()
	log.setReq(1)
	guest := newTap(log.fork())
	var res stormResult
	code, err := spawnAndJoin(sys, func(env core.Env) uint64 {
		wenv, werr := wrapEnv(env, guest)
		if werr != nil {
			res.check(false, "%v", werr)
			return 1
		}
		w.replay(wenv, &res)
		return 0
	}, p, log)
	sys.ExitProcess(code)
	p.check(err == nil && code == 0, "storm group: exit %d, %v", code, err)
	p.absorb(res.verdict)
	p.probe.merge(guest)
	log.adopt(guest.trace)
	p.reg.add(snapshot(sys.Metrics()))
	p.virtual = sys.Main.Clock.Now()
	fwd := sumCycles(guest.fwd)
	if w.native > 0 {
		p.slowdown = float64(fwd) / float64(w.native)
	}
	p.fingerprint = fmt.Sprintf("virtual=%d fwd=%d size=%d stdout=%d", p.virtual, fwd, res.finalSize, len(sys.Proc.Stdout()))
	p.keep = []any{sys}
	return p
}

func sumCycles(xs []cycles.Cycles) cycles.Cycles {
	var s cycles.Cycles
	for _, x := range xs {
		s += x
	}
	return s
}
