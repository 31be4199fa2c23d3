package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// JSONLWriter is a Sink streaming one WireRecord per span to w —
// the `-trace` output of cmd/dotest. Writes are
// serialised internally; ordering across concurrent workers follows
// span completion, not span start.
type JSONLWriter struct {
	mu    sync.Mutex
	enc   *json.Encoder
	epoch time.Time
	err   error
}

// NewJSONLWriter returns a JSONL trace sink writing to w. The first
// span's t_us is measured from this call.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w), epoch: time.Now()}
}

// Emit implements Sink.
func (jw *JSONLWriter) Emit(r *Record) {
	out := r.Wire(jw.epoch)
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err == nil {
		jw.err = jw.enc.Encode(&out)
	}
}

// Err returns the first write error (nil when the trace is healthy).
func (jw *JSONLWriter) Err() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

// WireRecord is the JSON wire form of one span, shared by the JSONL
// trace writer (`-trace`) and the job server's SSE progress stream.
// Timestamps are microseconds relative to an epoch chosen by the
// producer, so traces diff cleanly across runs and leak no wall-clock
// state into outputs.
type WireRecord struct {
	Stage    string           `json:"stage"`
	Macro    string           `json:"macro,omitempty"`
	Class    string           `json:"class,omitempty"`
	DfT      bool             `json:"dft,omitempty"`
	TUS      float64          `json:"t_us"`
	DurUS    float64          `json:"dur_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Wire converts the record to its wire form, timing it against epoch.
func (r *Record) Wire(epoch time.Time) WireRecord {
	out := WireRecord{
		Stage: r.Stage,
		Macro: r.Macro,
		Class: r.Class,
		DfT:   r.DfT,
		TUS:   float64(r.Start.Sub(epoch)) / float64(time.Microsecond),
		DurUS: float64(r.Dur) / float64(time.Microsecond),
	}
	for i, n := range r.Counters {
		if n != 0 {
			if out.Counters == nil {
				out.Counters = make(map[string]int64, len(r.Counters))
			}
			out.Counters[Counter(i).Name()] = n
		}
	}
	return out
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(r *Record)

// Emit implements Sink.
func (f SinkFunc) Emit(r *Record) { f(r) }
