package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// metric is one reported metric as BENCHMARK.json declares it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the program sees, reported by every
// untraced run. Failures are not a metric: they are the result line's
// attempted/failed counts.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "run_s", Unit: "s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "alloc_mb", Unit: "MB"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "job_p50_s", Unit: "s"},
}

// perLayer are the metrics of single layers, named <package>.<metric>,
// reported by every traced run. Times are self times (span duration
// minus child spans) unless the name says otherwise; see README.md.
var perLayer = []metric{
	{Name: "spice.faultsim_self_s", Unit: "s"},
	{Name: "spice.newton_iters", Unit: "count"},
	{Name: "spice.ns_per_newton", Unit: "ns"},
	{Name: "spice.gmin_retries", Unit: "count"},
	{Name: "spice.source_retries", Unit: "count"},
	{Name: "solver.lu_solves", Unit: "count"},
	{Name: "solver.sparse_factor_hits", Unit: "count"},
	{Name: "solver.dense_fallbacks", Unit: "count"},
	{Name: "solver.dense_ratio", Unit: "ratio"},
	{Name: "solver.pattern_reuse_hits", Unit: "count"},
	{Name: "macros.classify_self_s", Unit: "s"},
	{Name: "macros.rebind_hits", Unit: "count"},
	{Name: "macros.full_rebuilds", Unit: "count"},
	{Name: "macros.rebind_ratio", Unit: "ratio"},
	{Name: "macros.baseline_cache_hits", Unit: "count"},
	{Name: "faults.inject_s", Unit: "s"},
	{Name: "faults.collapse_s", Unit: "s"},
	{Name: "digital.faultsim_s", Unit: "s"},
	{Name: "defectsim.sprinkle_s", Unit: "s"},
	{Name: "defectsim.draws", Unit: "count"},
	{Name: "defectsim.ns_per_draw", Unit: "ns"},
	{Name: "core.self_s", Unit: "s"},
	{Name: "core.discover_s", Unit: "s"},
	{Name: "core.analyze_s", Unit: "s"},
	{Name: "core.analyses", Unit: "count"},
	{Name: "core.analyze_ms_p50", Unit: "ms"},
	{Name: "core.analyze_ms_tail", Unit: "ms"},
	{Name: "core.analyze_s.comparator", Unit: "s"},
	{Name: "core.analyze_s.ladder", Unit: "s"},
	{Name: "core.analyze_s.biasgen", Unit: "s"},
	{Name: "core.analyze_s.clockgen", Unit: "s"},
	{Name: "core.analyze_s.decoder", Unit: "s"},
	{Name: "core.goodspace_s", Unit: "s"},
	{Name: "core.goodspace_dies_in_flight", Unit: "ratio"},
	{Name: "signature.detect_s", Unit: "s"},
	{Name: "report.json_s", Unit: "s"},
	{Name: "campaign.units_completed", Unit: "count"},
	{Name: "campaign.units_restored", Unit: "count"},
	{Name: "campaign.units_failed", Unit: "count"},
	{Name: "campaign.resume_s", Unit: "s"},
	{Name: "campaign.checkpoints", Unit: "count"},
	{Name: "jobserver.submit_ms_p50", Unit: "ms"},
	{Name: "jobserver.resume_job_ms_p50", Unit: "ms"},
	{Name: "bench.trace_overhead_pct", Unit: "%"},
	{Name: "bench.self_time_coverage", Unit: "ratio"},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json, rejecting unknown keys, and checks that
// it declares exactly the workloads and metrics this harness emits.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if err := sameSet("workloads", names, workloadOrder); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("end_to_end", s.EndToEnd, endToEnd); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("per_layer", s.PerLayer, perLayer); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sameSet reports the first name that one list has and the other lacks.
func sameSet(what string, declared, emitted []string) error {
	d, e := map[string]bool{}, map[string]bool{}
	for _, n := range declared {
		d[n] = true
	}
	for _, n := range emitted {
		e[n] = true
		if !d[n] {
			return fmt.Errorf("%s: harness emits %q, BENCHMARK.json does not declare it", what, n)
		}
	}
	for _, n := range declared {
		if !e[n] {
			return fmt.Errorf("%s: BENCHMARK.json declares %q, harness does not emit it", what, n)
		}
	}
	return nil
}

// sameMetrics checks names both ways, then units.
func sameMetrics(what string, declared, emitted []metric) error {
	var dn, en []string
	units := map[string]string{}
	for _, m := range declared {
		dn = append(dn, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range emitted {
		en = append(en, m.Name)
	}
	if err := sameSet(what, dn, en); err != nil {
		return err
	}
	for _, m := range emitted {
		if units[m.Name] != m.Unit {
			return fmt.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the harness", what, m.Name, units[m.Name], m.Unit)
		}
	}
	return nil
}

// digestsJSON pins each workload's output digest per seed: workload →
// seed → sha256 hex of the workload's output bytes.
//
//go:embed digests.json
var digestsJSON []byte

// pinnedDigest returns the digest pinned for workload at seed, if any.
func pinnedDigest(workload string, seed int64) (string, bool, error) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pins[workload][strconv.FormatInt(seed, 10)]
	return d, ok, nil
}
