package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/vfs"
)

// tenants is a closed loop of short-lived execution groups: spawners
// goroutines each keep inFlight groups live, over the router + exitless +
// merger stack with a warm pool. Each group replays a seeded write-heavy
// sequence of sixteen boundary calls and exits.
type tenants struct {
	seqs   [][]tenantOp
	writes int
	native cycles.Cycles // Env.Syscall cycles of every sequence in the Native world
}

const (
	tenantGroups   = 4096
	tenantSpawners = 2
	tenantInFlight = 16
	tenantWarmPool = 32
	tenantLine     = 64 // bytes per stdout write
)

var tenantPaths = []string{"/srv/a", "/srv/b", "/srv/c"}

type tenantKind uint8

const (
	tMmap tenantKind = iota // mmap, then munmap of the same range
	tWrite
	tStat
	tGetpid
)

type tenantOp struct {
	kind tenantKind
	arg  uint64 // mmap length or stat path index
	rec  []byte // the stdout record a write emits
}

func newTenants(seed int64) (*tenants, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &tenants{}
	for g := 0; g < tenantGroups; g++ {
		// Every group makes the same write-heavy mix of calls in its own
		// seeded order: six stdout writes, two mmap+munmap pairs, three
		// stats and three getpids — sixteen calls.
		seq := []tenantOp{{kind: tMmap}, {kind: tMmap}}
		for i := 0; i < 6; i++ {
			seq = append(seq, tenantOp{kind: tWrite})
		}
		for i := 0; i < 3; i++ {
			seq = append(seq, tenantOp{kind: tStat, arg: uint64(rng.Intn(len(tenantPaths)))}, tenantOp{kind: tGetpid})
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		for i := range seq {
			switch seq[i].kind {
			case tMmap:
				seq[i].arg = uint64(1+rng.Intn(16)) << 12
			case tWrite:
				seq[i].rec = tenantRecord(g, w.writes)
				w.writes++
			}
		}
		w.seqs = append(w.seqs, seq)
	}

	// The Native-world reference: every sequence on a plain ROS process.
	sys, _, err := buildSystem(core.Options{AppName: "tenants-native", FS: tenantFS()}, nil)
	if err != nil {
		return nil, err
	}
	t := newTap(nil)
	env, err := wrapEnv(sys.NativeEnv(), t)
	if err != nil {
		return nil, err
	}
	for g := range w.seqs {
		if code := w.replay(g, env, nil); code != 0 {
			return nil, fmt.Errorf("tenants: native reference: group %d failed", g)
		}
	}
	sys.ExitProcess(0)
	w.native = sumCycles(t.fwd)
	return w, nil
}

func tenantFS() *vfs.FS {
	fs := vfs.New()
	_ = fs.MkdirAll("/srv")
	for i, p := range tenantPaths {
		_ = fs.WriteFile(p, bytes.Repeat([]byte{'t'}, 100*(i+1)))
	}
	return fs
}

// tenantRecord is the stdout record of write number n of the pass,
// made by group g.
func tenantRecord(g, n int) []byte {
	b := bytes.Repeat([]byte{'.'}, tenantLine)
	copy(b, fmt.Sprintf("group %06d write %07d ", g, n))
	b[tenantLine-1] = '\n'
	return b
}

// replay runs group g's sequence through env. It returns 0 when every
// call returned its expected value; a failure description goes to *why
// when why is non-nil.
func (w *tenants) replay(g int, env core.Env, why *string) uint64 {
	fail := func(format string, args ...any) uint64 {
		if why != nil {
			*why = fmt.Sprintf("group %d: ", g) + fmt.Sprintf(format, args...)
		}
		return 1
	}
	pid := uint64(env.Process().Pid())
	for _, op := range w.seqs[g] {
		switch op.kind {
		case tMmap:
			res := env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{
				0, op.arg, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
			if !res.Ok() || res.Ret == 0 {
				return fail("mmap: %v", res.Err)
			}
			if res = env.Syscall(linuxabi.Call{Num: linuxabi.SysMunmap, Args: [6]uint64{res.Ret, op.arg}}); !res.Ok() {
				return fail("munmap: %v", res.Err)
			}
		case tWrite:
			res := env.Syscall(linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{1, 0, tenantLine}, Data: op.rec})
			if !res.Ok() || res.Ret != tenantLine {
				return fail("write = %d, %v", res.Ret, res.Err)
			}
		case tStat:
			res := env.Syscall(linuxabi.Call{Num: linuxabi.SysStat, Path: tenantPaths[op.arg]})
			st, ok := linuxabi.DecodeStat(res.Data)
			if !res.Ok() || !ok || st.Size != 100*(op.arg+1) {
				return fail("stat %s: size %d, %v", tenantPaths[op.arg], st.Size, res.Err)
			}
		case tGetpid:
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() || res.Ret != pid {
				return fail("getpid = %d, %v", res.Ret, res.Err)
			}
		}
	}
	return 0
}

// tenantGroup is one group's record, written by its spawner.
type tenantGroup struct {
	g     *core.ExecutionGroup
	tap   *tap
	why   string
	start time.Time
}

// spawnerResult is what one spawner goroutine measured.
type spawnerResult struct {
	verdict
	clock           *cycles.Clock
	probe           *tap
	log             *spanLog
	groupNs         []int64
	spawnNs, joinNs int64
	spawnCycles     cycles.Cycles
	joinCycles      cycles.Cycles
}

// setup times one set-up of the workload's System and tears it down.
func (w *tenants) setup() (float64, error) {
	sys, s, err := w.build(nil)
	if err != nil {
		return 0, err
	}
	sys.ExitProcess(0)
	return s, nil
}

func (w *tenants) build(log *spanLog) (*core.System, float64, error) {
	return buildSystem(core.Options{
		AppName: "tenants", FS: tenantFS(), Hybrid: true, Router: true, Exitless: true, Merger: true,
		WarmPool: tenantWarmPool,
	}, log)
}

func (w *tenants) pass(log *spanLog) *passResult {
	p := newPass()
	sys, buildS, err := w.build(log)
	p.check(err == nil, "tenants: %v", err)
	if err != nil {
		return p
	}
	p.buildS = buildS
	p.buildCycles = sys.Main.Clock.Now()

	results := make([]*spawnerResult, tenantSpawners)
	var wg sync.WaitGroup
	for si := range results {
		r := &spawnerResult{clock: cycles.NewClock(sys.Main.Clock.Now()), probe: newTap(nil), log: log.fork()}
		results[si] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.spawner(sys, si, r)
		}()
	}
	wg.Wait()

	end := sys.Main.Clock.Now()
	for _, r := range results {
		p.absorb(r.verdict)
		p.probe.merge(r.probe)
		log.adopt(r.log)
		p.groupNs = append(p.groupNs, r.groupNs...)
		p.spawnNs += r.spawnNs
		p.joinNs += r.joinNs
		p.spawnCycles += r.spawnCycles
		p.joinCycles += r.joinCycles
		end = max(end, r.clock.Now())
	}
	p.groups = len(p.groupNs)
	sys.Main.Clock.SyncTo(end)

	p.leaked = sys.GroupTableSize()
	p.check(p.leaked == 0, "tenants: %d groups left in the group table", p.leaked)
	out := sys.Proc.Stdout()
	p.check(len(out) == tenantLine*w.writes, "tenants: stdout %d bytes, want %d", len(out), tenantLine*w.writes)
	p.check(w.sameRecords(out), "tenants: stdout records differ from the writes made")
	sys.ExitProcess(0)

	p.reg.add(snapshot(sys.Metrics()))
	p.virtual = sys.Main.Clock.Now()
	fwd := sumCycles(p.probe.fwd)
	if w.native > 0 {
		p.slowdown = float64(fwd) / float64(w.native)
	}
	p.keep = []any{sys}
	return p
}

// spawner runs its share of the groups (every tenantSpawners-th, from
// si), keeping tenantInFlight of them live and joining the oldest before
// spawning the next.
func (w *tenants) spawner(sys *core.System, si int, r *spawnerResult) {
	var live []*tenantGroup
	join := func() {
		tg := live[0]
		live = live[1:]
		t0 := time.Now()
		c0 := r.clock.Now()
		var code uint64
		var err error
		r.log.around(spJoin, func() { code, err = tg.g.WaitExit(r.clock) })
		r.joinCycles += r.clock.Now() - c0
		t1 := time.Now()
		r.joinNs += int64(t1.Sub(t0))
		r.groupNs = append(r.groupNs, int64(t1.Sub(tg.start)))
		r.check(err == nil && code == 0, "group exit %d, %v %s", code, err, tg.why)
		r.probe.merge(tg.tap)
		r.log.adopt(tg.tap.trace)
	}
	for g := si; g < len(w.seqs); g += tenantSpawners {
		if len(live) == tenantInFlight {
			join()
		}
		tg := &tenantGroup{start: time.Now()}
		c0 := r.clock.Now()
		var err error
		r.log.setReq(uint32(g + 1))
		r.log.around(spSpawn, func() {
			tg.tap = newTap(r.log.fork())
			tg.g, err = sys.SpawnGroup(r.clock, func(env core.Env) uint64 {
				wenv, werr := wrapEnv(env, tg.tap)
				if werr != nil {
					tg.why = werr.Error()
					return 1
				}
				var code uint64
				tg.tap.trace.around(spGroup, func() { code = w.replay(g, wenv, &tg.why) })
				return code
			})
		})
		r.spawnNs += int64(time.Since(tg.start))
		r.spawnCycles += r.clock.Now() - c0
		if err != nil {
			r.check(false, "spawn group %d: %v", g, err)
			continue
		}
		live = append(live, tg)
	}
	for len(live) > 0 {
		join()
	}
}

// sameRecords reports whether out holds every record the sequences
// write, each once, in any order: concurrent groups interleave their
// writes.
func (w *tenants) sameRecords(out []byte) bool {
	if len(out) != tenantLine*w.writes {
		return false
	}
	got := make([]string, 0, w.writes)
	for i := 0; i < len(out); i += tenantLine {
		got = append(got, string(out[i:i+tenantLine]))
	}
	sort.Strings(got)
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			return false
		}
	}
	for _, seq := range w.seqs {
		for _, op := range seq {
			if op.kind == tWrite {
				if j := sort.SearchStrings(got, string(op.rec)); j == len(got) || got[j] != string(op.rec) {
					return false
				}
			}
		}
	}
	return true
}
