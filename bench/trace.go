package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of a traced operation. Spans the harness
// opens around its calls into the program are bench spans; spans the
// program emits through its obs.Observer are program spans.
type span struct {
	id, parent int
	// name is the bench span's name or the program span's stage.
	name         string
	macro, class string
	// tid groups the spans of one client goroutine in the trace file.
	tid        int
	program    bool
	start, end time.Time
	counters   [obs.NumCounters]int64
	// self is the duration minus the part of it that child spans cover,
	// set by link.
	self time.Duration
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// contains reports whether t lies within s's interval.
func (s *span) contains(t *span) bool {
	return !t.start.Before(s.start) && !t.end.After(s.end)
}

// groupSpan names the bench span whose inside is not partitioned: the
// good-space compile runs its dies on concurrent goroutines, so its
// program spans overlap and are reported as one group.
const groupSpan = "core.goodspace"

// recorder keeps the spans of one traced operation in memory. A nil
// *recorder records nothing, so untraced code paths call it freely. It
// is the obs.Sink the harness attaches to the pipeline it drives.
type recorder struct {
	traceID string
	mu      sync.Mutex
	spans   []*span
}

func newRecorder(traceID string) *recorder { return &recorder{traceID: traceID} }

func (r *recorder) add(s *span) {
	r.mu.Lock()
	s.id = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// begin opens a bench span under parent (nil for a root) on parent's
// thread, or on thread 1 for a root.
func (r *recorder) begin(name, macro string, parent *span) *span {
	if r == nil {
		return nil
	}
	s := &span{name: name, macro: macro, tid: 1}
	if parent != nil {
		s.parent, s.tid = parent.id, parent.tid
	}
	r.add(s)
	s.start = time.Now()
	return s
}

// end closes a bench span (nil-safe).
func (r *recorder) end(s *span) {
	if s != nil {
		s.end = time.Now()
	}
}

// Emit implements obs.Sink: a finished program span, parented by link.
func (r *recorder) Emit(rec *obs.Record) {
	r.add(&span{
		name: rec.Stage, macro: rec.Macro, class: rec.Class, tid: 1, program: true,
		start: rec.Start, end: rec.Start.Add(rec.Dur), counters: rec.Counters,
	})
}

// link parents every program span under the innermost earlier-opened
// span containing it, then computes every span's self time. Parenting by
// containment is sound because outside the group span the program emits
// its spans from the goroutine the harness called it on; inside it the
// program spans are parented flat under the group.
func (r *recorder) link() {
	all := append([]*span(nil), r.spans...)
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		if a.dur() != b.dur() {
			return a.dur() > b.dur()
		}
		return !a.program && b.program
	})
	var stack []*span
	for _, s := range all {
		for len(stack) > 0 && !stack[len(stack)-1].contains(s) {
			stack = stack[:len(stack)-1]
		}
		if s.program && len(stack) > 0 {
			top := stack[len(stack)-1]
			s.parent, s.tid = top.id, top.tid
			if top.name == groupSpan {
				continue
			}
		}
		stack = append(stack, s)
	}
	selfTimes(r.spans)
}

// selfTimes sets each span's self time: its duration minus the union of
// its children's intervals. A group span keeps its whole duration.
func selfTimes(spans []*span) {
	children := map[int][]*span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range spans {
		s.self = s.dur()
		if s.name == groupSpan {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		var covered time.Duration
		var cur time.Time // end of the covered prefix
		for _, k := range kids {
			from, to := k.start, k.end
			if from.Before(cur) {
				from = cur
			}
			if from.Before(s.start) {
				from = s.start
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		s.self -= covered
	}
}

// under returns the spans strictly below root.
func (r *recorder) under(root *span) []*span {
	byID := make(map[int]*span, len(r.spans))
	for _, s := range r.spans {
		byID[s.id] = s
	}
	in := map[int]bool{root.id: true}
	var isIn func(s *span) bool
	isIn = func(s *span) bool {
		if v, ok := in[s.id]; ok {
			return v
		}
		p, ok := byID[s.parent]
		v := ok && isIn(p)
		in[s.id] = v
		return v
	}
	var out []*span
	for _, s := range r.spans {
		if s != root && isIn(s) {
			out = append(out, s)
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// events converts the recorded spans into trace events on process pid,
// timed in microseconds from epoch.
func (r *recorder) events(pid int, epoch time.Time) []traceEvent {
	out := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{"span_id": s.id, "parent_id": s.parent, "trace_id": r.traceID}
		if s.macro != "" {
			args["macro"] = s.macro
		}
		if s.class != "" {
			args["class"] = s.class
		}
		for c, n := range s.counters {
			if n != 0 {
				args[obs.Counter(c).Name()] = n
			}
		}
		cat := "bench"
		if s.program {
			cat = "program"
		}
		out = append(out, traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: pid, Tid: s.tid, Args: args,
		})
	}
	return out
}

// writeTrace writes the spans of every traced operation of one run as a
// Chrome trace-event file (one process per operation).
func writeTrace(path string, recs []*recorder) error {
	var evs []traceEvent
	for i, r := range recs {
		if len(r.spans) == 0 {
			continue
		}
		epoch := r.spans[0].start
		for _, s := range r.spans {
			if s.start.Before(epoch) {
				epoch = s.start
			}
		}
		evs = append(evs, r.events(i+1, epoch)...)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
