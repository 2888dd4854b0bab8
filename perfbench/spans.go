package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName is a span's layer label.
type spanName uint8

const (
	spPass spanName = iota
	spBuild
	spBoot
	spRun
	spSpawn
	spJoin
	spGroup
	spSyscall
	spTouch
	spVDSO
	spTimer
	spCompute
	spPthread
	nSpanNames
)

// spanNames are the printed labels, named after the module whose public
// function the span brackets.
var spanNames = [nSpanNames]string{
	spPass:    "bench.pass",
	spBuild:   "core.build",
	spBoot:    "scheme.boot",
	spRun:     "scheme.run",
	spSpawn:   "core.spawn",
	spJoin:    "core.join",
	spGroup:   "bench.group",
	spSyscall: "boundary.syscall",
	spTouch:   "env.touch",
	spVDSO:    "env.vdso",
	spTimer:   "env.timer",
	spCompute: "env.compute",
	spPthread: "env.pthread",
}

// span is one timed call: host nanoseconds since the run's epoch, the
// index of the span that caused it (-1 for a root), and the request it
// belongs to.
type span struct {
	start, end int64
	parent     int32
	name       spanName
	req        uint32
}

// spanLog keeps the spans of one goroutine in memory. A log is forked for
// each goroutine the benchmark hands work to and adopted back by the
// goroutine that waits for it, so no log is ever written by two
// goroutines. All methods are no-ops on a nil log (tracing off).
type spanLog struct {
	epoch  time.Time
	spans  []span
	cur    int32 // innermost open span, -1 when none
	req    uint32
	attach int32 // span in the parent log that caused this log's roots
}

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, cur: -1, attach: -1}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span under the innermost open one.
func (l *spanLog) begin(n spanName) int32 {
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{start: l.now(), parent: l.cur, name: n, req: l.req})
	l.cur = id
	return id
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int32) int64 {
	s := &l.spans[id]
	s.end = l.now()
	l.cur = s.parent
	return s.end - s.start
}

// setReq tags the spans begun from now on with request id r.
func (l *spanLog) setReq(r uint32) {
	if l != nil {
		l.req = r
	}
}

// fork starts a log for another goroutine whose roots the innermost open
// span caused.
func (l *spanLog) fork() *spanLog {
	if l == nil {
		return nil
	}
	c := newSpanLog(l.epoch)
	c.attach, c.req = l.cur, l.req
	return c
}

// adopt appends a finished child log.
func (l *spanLog) adopt(c *spanLog) {
	if l == nil || c == nil {
		return
	}
	off := int32(len(l.spans))
	for _, s := range c.spans {
		if s.parent < 0 {
			s.parent = c.attach
		} else {
			s.parent += off
		}
		l.spans = append(l.spans, s)
	}
}

// around runs fn inside a span; a nil log just runs fn.
func (l *spanLog) around(n spanName, fn func()) {
	if l == nil {
		fn()
		return
	}
	id := l.begin(n)
	fn()
	l.end(id)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its children cover. Children that
// ran concurrently (groups under a spawner) are merged before subtracting,
// so a span's self time is never negative.
func (l *spanLog) selfTimes() [nSpanNames]float64 {
	var out [nSpanNames]float64
	if l == nil {
		return out
	}
	kids := make([][]int32, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for i, s := range l.spans {
		covered := int64(0)
		ch := kids[i]
		if len(ch) > 0 {
			sort.Slice(ch, func(a, b int) bool { return l.spans[ch[a]].start < l.spans[ch[b]].start })
			runStart, runEnd := int64(-1), int64(-1)
			for _, k := range ch {
				cs, ce := max(l.spans[k].start, s.start), min(l.spans[k].end, s.end)
				if ce <= cs {
					continue
				}
				if cs > runEnd {
					covered += runEnd - runStart
					runStart, runEnd = cs, ce
				} else if ce > runEnd {
					runEnd = ce
				}
			}
			covered += runEnd - runStart
		}
		out[s.name] += float64(s.end-s.start-covered) / 1e9
	}
	return out
}

// writeTSV writes the spans out, one per line: index, name, start ns, end
// ns, parent index, request id.
func (l *spanLog) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
