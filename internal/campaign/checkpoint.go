package campaign

import "encoding/json"

// saveCheckpoint persists every result marshalled so far (restored
// payloads included, so a resumed-then-interrupted campaign keeps its
// full history) through the configured Store. ckptMu keeps concurrent
// flushes of this engine from racing on the store's temp file.
func (e *engine) saveCheckpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.Lock()
	ck := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: e.opts.Fingerprint,
		Results:     make(map[string]json.RawMessage, len(e.raw)+len(e.restored)),
	}
	for k, v := range e.restored {
		ck.Results[k] = v
	}
	for k, v := range e.raw {
		ck.Results[k] = v
	}
	ck.Units = len(ck.Results)
	e.stats.Checkpoints++
	e.mu.Unlock()
	return e.opts.Store.Save(ck)
}
