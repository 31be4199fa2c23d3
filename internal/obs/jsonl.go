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
