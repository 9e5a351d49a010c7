package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (0 = the trace root); spans of one FL round share Round.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the benchmark writes them out at exit.
// It records only while on is set, so one deployment can alternate
// untraced and traced blocks of rounds and report the overhead as the
// difference. The program under test is never modified: spans come from
// decorators (decorators.go) installed at seams it already exposes.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	round int
	spans []span
	// open is the per-goroutine stack of open span ids: a span begun on a
	// goroutine that already has one open is its child. Calls that hop
	// goroutines or processes name their parent explicitly instead.
	open map[uint64][]int64
	// devs are the device decorators installed through wrapDevice.
	devs []*tracedDevice
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[uint64][]int64)}
}

// tok identifies an open span; idx < 0 means tracing was off at begin.
type tok struct {
	idx int
	gid uint64
}

// goid parses the current goroutine's id out of its stack header
// ("goroutine 123 [running]:"). Benchmark-side only: it is how a
// decorator learns that a controller call was made by the handler span
// open on the same goroutine, without threading a context through code
// this PR may not touch.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span. parent > 0 names the causing span explicitly (a
// header carried it across HTTP); otherwise the innermost span open on
// this goroutine is the parent, and failing that the most recently
// begun open span whose name starts with adopt (a fan-out goroutine's
// call is caused by the fan-out that spawned it; "" adopts nothing).
func (t *tracer) begin(name string, parent int64, adopt string) tok {
	if !t.on.Load() {
		return tok{idx: -1}
	}
	gid := goid()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		if st := t.open[gid]; len(st) > 0 {
			parent = st[len(st)-1]
		} else if adopt != "" {
			for _, st := range t.open {
				for _, id := range st {
					if id > parent && strings.HasPrefix(t.spans[id-1].Name, adopt) {
						parent = id
					}
				}
			}
		}
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Name: name, Start: now})
	t.open[gid] = append(t.open[gid], id)
	return tok{idx: len(t.spans) - 1, gid: gid}
}

// end closes a span opened by begin.
func (t *tracer) end(k tok) {
	if k.idx < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[k.idx].End = now
	if st := t.open[k.gid]; len(st) > 0 {
		if st = st[:len(st)-1]; len(st) == 0 {
			delete(t.open, k.gid)
		} else {
			t.open[k.gid] = st
		}
	}
}

// id reports an open span's id, for carrying across a process boundary.
func (t *tracer) id(k tok) int64 {
	if k.idx < 0 {
		return 0
	}
	return int64(k.idx + 1)
}

func (t *tracer) setRound(r int) {
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---- analysis -------------------------------------------------------

type interval struct{ lo, hi int64 }

// unionLen is the total length of the union of ivs, each clipped to
// [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		total += iv.hi - end
		end = iv.hi
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover; overlapping (parallel) children count once.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return s.dur() - unionLen(ivs, s.Start, s.End)
}

// spanIndex groups a trace for per-layer sums.
type spanIndex struct {
	spans    []span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int64][]span)}
	for _, s := range spans {
		ix.children[s.Parent] = append(ix.children[s.Parent], s)
	}
	return ix
}

// sum adds f(span) over spans whose name has the prefix.
func (ix *spanIndex) sum(prefix string, f func(span) int64) (total int64, n int) {
	for _, s := range ix.spans {
		if strings.HasPrefix(s.Name, prefix) {
			total += f(s)
			n++
		}
	}
	return total, n
}

func (ix *spanIndex) dur(prefix string) int64 {
	d, _ := ix.sum(prefix, span.dur)
	return d
}

func (ix *spanIndex) self(prefix string) int64 {
	d, _ := ix.sum(prefix, func(s span) int64 { return selfTime(s, ix.children[s.ID]) })
	return d
}

// busy is the union of the named spans within each round: the time at
// least one of them was outstanding.
func (ix *spanIndex) busy(prefix string) int64 {
	byRound := map[int][]interval{}
	for _, s := range ix.spans {
		if strings.HasPrefix(s.Name, prefix) {
			byRound[s.Round] = append(byRound[s.Round], interval{s.Start, s.End})
		}
	}
	var total int64
	for _, ivs := range byRound {
		total += unionLen(ivs, 0, 1<<62)
	}
	return total
}
