// Remote unit execution: a campaign unit is fully identified by its
// key plus the pipeline configuration, so a worker process that holds
// only (JobSpec, DfT setting, unit key) can reproduce the exact
// computation the daemon's closure-based Unit would have run. Class
// units reference their class by index into the macro's collapsed
// catalogue; the catalogue itself is deterministic (per-stage RNG
// streams), so the worker re-derives it locally — once per macro, via a
// compute-once memo — and byte-identity with local execution follows
// from the same determinism the checkpoint/resume path already relies
// on.
package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
)

// ParseUnitKey splits a campaign unit key into its components: the
// macro name, and — for class units — the class index and fault-model
// variant. isClass is false for discovery (macro/...) units.
func ParseUnitKey(key string) (macro string, index int, nonCat, isClass bool, err error) {
	switch {
	case strings.HasPrefix(key, keyMacro):
		macro = strings.TrimPrefix(key, keyMacro)
		if macro == "" {
			return "", 0, false, false, fmt.Errorf("core: empty macro in unit key %q", key)
		}
		return macro, 0, false, false, nil
	case strings.HasPrefix(key, keyClass):
		rest := strings.TrimPrefix(key, keyClass)
		parts := strings.Split(rest, "/")
		if len(parts) != 3 {
			return "", 0, false, false, fmt.Errorf("core: malformed class unit key %q", key)
		}
		idx, cErr := strconv.Atoi(parts[1])
		if cErr != nil || idx < 0 {
			return "", 0, false, false, fmt.Errorf("core: bad class index in unit key %q", key)
		}
		switch parts[2] {
		case "cat":
		case "noncat":
			nonCat = true
		default:
			return "", 0, false, false, fmt.Errorf("core: bad variant in unit key %q", key)
		}
		return parts[0], idx, nonCat, true, nil
	}
	return "", 0, false, false, fmt.Errorf("core: unknown campaign unit key %q", key)
}

// discoverCached runs (or joins, or serves from cache) the class
// discovery of one macro, a compute-once result per (macro, dft), so a
// worker leasing many classes of one macro pays the sprinkle exactly
// once. The cached *MacroRun is shared — callers must treat it as
// read-only, which ExecuteUnit does (it marshals it, or indexes its
// class catalogue).
func (p *Pipeline) discoverCached(ctx context.Context, macroName string, dft bool) (*MacroRun, error) {
	run, _, err := p.discovered.Do(ctx, DfTLabel(dft)+"/"+macroName, func() (*MacroRun, error) {
		return p.DiscoverClasses(ctx, macroName, dft)
	})
	return run, err
}

// ExecuteUnit executes one campaign unit identified by its key alone —
// the remote-worker entry point. A discovery (macro/...) unit runs
// DiscoverClasses; a class unit resolves its class by index from the
// (cached) discovery of its macro and runs AnalyzeClass. The returned
// value marshals to exactly the bytes the daemon-side closure unit
// would have checkpointed: the checkpoint payload format is the wire
// format.
func (p *Pipeline) ExecuteUnit(ctx context.Context, key string, dft bool) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	macroName, index, nonCat, isClass, err := ParseUnitKey(key)
	if err != nil {
		return nil, err
	}
	if !isClass {
		return p.discoverCached(ctx, macroName, dft)
	}
	run, err := p.discoverCached(ctx, macroName, dft)
	if err != nil {
		return nil, err
	}
	if index >= len(run.Classes) {
		return nil, fmt.Errorf("core: unit %s indexes class %d of %d — configuration mismatch with the submitting daemon",
			key, index, len(run.Classes))
	}
	return p.AnalyzeClass(ctx, macroName, run.Classes[index], nonCat, dft)
}

// DecodeUnit rebuilds a typed unit result from its marshalled JSON —
// the exported face of the checkpoint/wire codec, for embedders (the
// job server, the remote worker) that move unit results between
// processes.
func DecodeUnit(key string, raw []byte) (any, error) {
	return decodeUnit(key, raw)
}
