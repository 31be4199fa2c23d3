package jobserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
)

// The job's event broadcaster, tested without a campaign: a bare job
// publishes progress by hand and spans through a run-style observer.

// idleJob returns a running job that nothing drives.
func idleJob() *Job {
	return newJob(nil, "j1", "fp", core.JobSpec{})
}

// spanObserver is the observer a run gives its pipeline, minus the
// aggregator.
func spanObserver(j *Job) *obs.Observer {
	return obs.New(obs.SinkFunc(j.emitSpan))
}

// emit ends one span with a counter delta through o.
func emit(o *obs.Observer, stage string, lu int64) {
	var met obs.Metrics
	sp := o.Start(stage, "opamp", "open/2", true, &met)
	met.Add(obs.CtrLUSolves, lu)
	sp.End()
}

// TestPublishFansOut: every watcher sees every event in publish order,
// and a span arrives as a copy of the observer's record, counters
// included.
func TestPublishFansOut(t *testing.T) {
	j := idleJob()
	o := spanObserver(j)
	_, a, cancelA := j.subscribe(8, true)
	defer cancelA()
	_, b, cancelB := j.subscribe(8, true)
	defer cancelB()
	emit(o, obs.StageFaultSim, 11)
	j.setProgress("pre", campaign.Progress{Completed: 1})
	emit(o, obs.StageDetect, 12)
	for _, ch := range []chan Event{a, b} {
		want := []string{"span", "progress", "span"}
		for i, typ := range want {
			ev := <-ch
			if ev.Type != typ {
				t.Fatalf("event %d: type %q, want %q", i, ev.Type, typ)
			}
		}
		if len(ch) != 0 {
			t.Fatalf("%d extra events", len(ch))
		}
	}
	emit(o, obs.StageFaultSim, 13)
	ev := <-a
	if ev.DfT != "post" || ev.rec.Stage != obs.StageFaultSim || ev.rec.Macro != "opamp" ||
		ev.rec.Counters[obs.CtrLUSolves] != 13 {
		t.Fatalf("span event: %+v", ev)
	}
}

// TestPublishDropsForFullWatcher: a full watcher loses events without
// blocking publish, and the other watcher still gets every one, with
// spans ending on two workers at once.
func TestPublishDropsForFullWatcher(t *testing.T) {
	j := idleJob()
	o := spanObserver(j)
	_, slow, cancelSlow := j.subscribe(1, true)
	defer cancelSlow()
	_, fast, cancelFast := j.subscribe(16, true)
	defer cancelFast()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				emit(o, obs.StageDetect, 1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full watcher")
	}
	if len(slow) != 1 {
		t.Fatalf("full watcher holds %d events, want 1", len(slow))
	}
	if len(fast) != 10 {
		t.Fatalf("other watcher got %d events, want 10", len(fast))
	}
}

// TestSpanlessWatcherGetsNoSpans: a watcher subscribed without spans
// gets the progress events and none of the spans around them.
func TestSpanlessWatcherGetsNoSpans(t *testing.T) {
	j := idleJob()
	o := spanObserver(j)
	_, ch, cancel := j.subscribe(1, false)
	defer cancel()
	emit(o, obs.StageFaultSim, 1)
	j.setProgress("pre", campaign.Progress{Completed: 1})
	emit(o, obs.StageFaultSim, 1)
	if len(ch) != 1 {
		t.Fatalf("%d events queued, want the one progress event", len(ch))
	}
	if ev := <-ch; ev.Type != "progress" {
		t.Fatalf("got a %q event", ev.Type)
	}
}

// TestUnsubscribeStopsDelivery: after the unsubscribe function returns,
// nothing more reaches the watcher's channel.
func TestUnsubscribeStopsDelivery(t *testing.T) {
	j := idleJob()
	o := spanObserver(j)
	_, ch, cancel := j.subscribe(4, true)
	emit(o, obs.StageInject, 1)
	cancel()
	emit(o, obs.StageInject, 1)
	j.setProgress("pre", campaign.Progress{Completed: 1})
	if len(ch) != 1 {
		t.Fatalf("%d events queued, want only the one before unsubscribing", len(ch))
	}
}

// TestSpanSinkWithoutWatchersAllocatesNothing: with nobody watching, a
// run's span sink is free of allocations.
func TestSpanSinkWithoutWatchersAllocatesNothing(t *testing.T) {
	j := idleJob()
	r := &obs.Record{Stage: obs.StageFaultSim}
	if n := testing.AllocsPerRun(100, func() { j.emitSpan(r) }); n != 0 {
		t.Fatalf("emitSpan allocated %v times per span", n)
	}
}
