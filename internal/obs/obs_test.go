package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilObserverAndMetricsAreFree pins the noop contract: a nil
// observer's spans and a nil metrics block must be safe, inert and
// allocation-free — the kernel hot path relies on it.
func TestNilObserverAndMetricsAreFree(t *testing.T) {
	var o *Observer
	var m *Metrics
	allocs := testing.AllocsPerRun(100, func() {
		sp := o.Start(StageFaultSim, "comparator", "c1", false, m)
		m.Add(CtrNewtonIters, 3)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil observer span cost %v allocs/op, want 0", allocs)
	}
	if m.Get(CtrNewtonIters) != 0 {
		t.Fatal("nil metrics should read 0")
	}
	if New() != nil {
		t.Fatal("New() with no sinks should return the nil (noop) observer")
	}
	if o.Stages() != nil {
		t.Fatal("nil observer Stages() should be nil")
	}
}

// TestSpanCounterDeltas checks that a span records only the counter
// activity inside its window.
func TestSpanCounterDeltas(t *testing.T) {
	agg := NewAgg()
	o := New(agg)
	met := &Metrics{}
	met.Add(CtrNewtonIters, 100) // before the span: must not be attributed

	sp := o.Start(StageFaultSim, "ladder", "short:a:b", true, met)
	met.Add(CtrNewtonIters, 7)
	met.Add(CtrLUSolves, 7)
	sp.End()

	st := o.Stages()[StageFaultSim]
	if st == nil || st.Spans != 1 {
		t.Fatalf("stage stats = %+v, want 1 span", st)
	}
	if got := st.Counters[CtrNewtonIters.Name()]; got != 7 {
		t.Fatalf("newton_iters delta = %d, want 7", got)
	}
	if got := st.Counters[CtrLUSolves.Name()]; got != 7 {
		t.Fatalf("lu_solves delta = %d, want 7", got)
	}
}

// TestJSONLWriter checks the trace schema: one valid JSON object per
// line with stage/labels/timing and non-zero counters only.
func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	o := New(jw)

	met := &Metrics{}
	sp := o.Start(StageSprinkle, "comparator", "discovery", false, met)
	met.Add(CtrSprinkleDraws, 25000)
	time.Sleep(time.Millisecond)
	sp.End()
	o.Start(StageDetect, "comparator", "c9", true, nil).End()

	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var recs []WireRecord
	for sc.Scan() {
		var r WireRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Stage != StageSprinkle || r0.Macro != "comparator" || r0.Class != "discovery" {
		t.Fatalf("bad labels: %+v", r0)
	}
	if r0.DurUS <= 0 {
		t.Fatalf("dur_us = %v, want > 0", r0.DurUS)
	}
	if r0.Counters["sprinkle_draws"] != 25000 {
		t.Fatalf("counters = %v", r0.Counters)
	}
	if recs[1].Counters != nil {
		t.Fatalf("zero counters must be omitted, got %v", recs[1].Counters)
	}
	if !recs[1].DfT {
		t.Fatal("dft label lost")
	}
}

// TestMetricsConcurrent hammers one shared Metrics block from many
// goroutines — the good-space die workers all fold into their stage's
// block — and checks that no increment is lost. Under -race this is the
// synchronisation proof for the atomic counters.
func TestMetricsConcurrent(t *testing.T) {
	met := &Metrics{}
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := &Metrics{}
			for i := 0; i < perWorker; i++ {
				c := Counter((id + i) % int(NumCounters))
				met.Add(c, 1)
				local.Add(c, 1)
				_ = met.Get(c) // concurrent reads must be race-free too
			}
			met.Merge(local) // doubles every contribution
		}(w)
	}
	wg.Wait()
	var total int64
	for c := Counter(0); c < NumCounters; c++ {
		total += met.Get(c)
	}
	if want := int64(2 * workers * perWorker); total != want {
		t.Fatalf("lost increments: total = %d, want %d", total, want)
	}
	// Nil-safety of Merge in both directions.
	var nilMet *Metrics
	nilMet.Merge(met)
	met.Merge(nilMet)
}

// TestAggConcurrent exercises the aggregator from parallel emitters
// (the campaign worker situation) — run under -race this is the
// synchronisation test.
func TestAggConcurrent(t *testing.T) {
	agg := NewAgg()
	o := New(agg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				met := &Metrics{}
				sp := o.Start(StageClassify, "m", "c", false, met)
				met.Add(CtrNewtonIters, 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	st := agg.Snapshot()[StageClassify]
	if st.Spans != 400 || st.Counters[CtrNewtonIters.Name()] != 400 {
		t.Fatalf("aggregate = %+v, want 400 spans / 400 iters", st)
	}
}

// TestWireRecordMatchesJSONL: the exported wire form carries the same
// fields the JSONL trace always wrote — zero counters elided, times in
// microseconds from the epoch.
func TestWireRecordMatchesJSONL(t *testing.T) {
	epoch := time.Unix(100, 0)
	r := Record{
		Stage: StageFaultSim, Macro: "comparator", Class: "short/1", DfT: true,
		Start: epoch.Add(250 * time.Microsecond),
		Dur:   3 * time.Millisecond,
	}
	r.Counters[CtrNewtonIters] = 42
	w := r.Wire(epoch)
	if w.Stage != StageFaultSim || w.Macro != "comparator" || w.Class != "short/1" || !w.DfT {
		t.Fatalf("labels: %+v", w)
	}
	if w.TUS != 250 || w.DurUS != 3000 {
		t.Fatalf("times: t_us=%v dur_us=%v", w.TUS, w.DurUS)
	}
	if len(w.Counters) != 1 || w.Counters["newton_iters"] != 42 {
		t.Fatalf("counters: %v", w.Counters)
	}
}
