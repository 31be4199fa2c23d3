package core

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestParseUnitKey(t *testing.T) {
	cases := []struct {
		key     string
		macro   string
		index   int
		nonCat  bool
		isClass bool
		wantErr string
	}{
		{key: "macro/comparator", macro: "comparator"},
		{key: "class/ladder/7/cat", macro: "ladder", index: 7, isClass: true},
		{key: "class/biasgen/0/noncat", macro: "biasgen", nonCat: true, isClass: true},
		{key: "macro/", wantErr: "empty macro"},
		{key: "class/ladder/7", wantErr: "malformed"},
		{key: "class/ladder/x/cat", wantErr: "bad class index"},
		{key: "class/ladder/-1/cat", wantErr: "bad class index"},
		{key: "class/ladder/7/maybe", wantErr: "bad variant"},
		{key: "job/whatever", wantErr: "unknown"},
	}
	for _, c := range cases {
		macro, index, nonCat, isClass, err := ParseUnitKey(c.key)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%q: err = %v, want %q", c.key, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.key, err)
			continue
		}
		if macro != c.macro || index != c.index || nonCat != c.nonCat || isClass != c.isClass {
			t.Errorf("%q: got (%q,%d,%v,%v), want (%q,%d,%v,%v)",
				c.key, macro, index, nonCat, isClass, c.macro, c.index, c.nonCat, c.isClass)
		}
	}
}

// TestExecuteUnitByteIdentity is the remote-execution contract: for
// every unit key of a macro's campaign, ExecuteUnit on a FRESH pipeline
// (the worker's, which shares nothing with the daemon but the
// configuration) marshals to exactly the bytes the daemon-side closure
// unit produces. This is what lets a remote worker's result merge
// through the restored-unit path without perturbing the output.
func TestExecuteUnitByteIdentity(t *testing.T) {
	cfg := QuickConfig()
	daemon := NewPipeline(cfg)
	worker := NewPipeline(cfg)
	const macroName = "comparator"

	mu := daemon.macroUnit(macroName, false)
	runA, err := mu.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runB, err := worker.ExecuteUnit(context.Background(), mu.Key, false)
	if err != nil {
		t.Fatal(err)
	}
	jsonA, _ := json.Marshal(runA)
	jsonB, _ := json.Marshal(runB)
	if string(jsonA) != string(jsonB) {
		t.Fatalf("discovery unit diverges:\n daemon %s\n worker %s", jsonA, jsonB)
	}

	classUnits := mu.Fanout(runA)
	if len(classUnits) == 0 {
		t.Fatal("test premise broken: no class units fanned out")
	}
	if len(classUnits) > 3 {
		classUnits = classUnits[:3] // identity per unit; three keys suffice
	}
	for _, cu := range classUnits {
		caA, err := cu.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		caB, err := worker.ExecuteUnit(context.Background(), cu.Key, false)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(caA)
		jb, _ := json.Marshal(caB)
		if string(ja) != string(jb) {
			t.Fatalf("unit %s diverges:\n daemon %s\n worker %s", cu.Key, ja, jb)
		}
		// And the round trip through the wire codec stays typed.
		dec, err := DecodeUnit(cu.Key, jb)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dec.(*ClassAnalysis); !ok {
			t.Fatalf("decoded %T, want *ClassAnalysis", dec)
		}
	}
}

// TestExecuteUnitDiscoveryCache: many class units of one macro share a
// single discovery — concurrent ExecuteUnit calls single-flight it and
// later calls hit the cache (same *MacroRun).
func TestExecuteUnitDiscoveryCache(t *testing.T) {
	p := NewPipeline(QuickConfig())
	const key = "macro/ladder"
	var wg sync.WaitGroup
	runs := make([]any, 4)
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := p.ExecuteUnit(context.Background(), key, false)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(runs); i++ {
		if runs[i] != runs[0] {
			t.Fatalf("discovery %d not shared with 0", i)
		}
	}
	again, err := p.ExecuteUnit(context.Background(), key, false)
	if err != nil || again != runs[0] {
		t.Fatalf("cache miss on repeat discovery: %v", err)
	}
}

// TestExecuteUnitBounds: a class index beyond the catalogue is a
// configuration mismatch between daemon and worker — loud, not a panic.
func TestExecuteUnitBounds(t *testing.T) {
	p := NewPipeline(QuickConfig())
	if _, err := p.ExecuteUnit(context.Background(), "class/comparator/9999/cat", false); err == nil ||
		!strings.Contains(err.Error(), "configuration mismatch") {
		t.Fatalf("want configuration-mismatch error, got %v", err)
	}
	if _, err := p.ExecuteUnit(context.Background(), "bogus", false); err == nil {
		t.Fatal("want unknown-key error")
	}
}

// FuzzParseUnitKey: ParseUnitKey never panics, and every key it accepts
// re-formats (through keyMacro or classKey) to a key that parses to the
// same components. Unit keys cross the remote-worker trust boundary, so
// the decoder must be total. The seed corpus runs in plain go test.
func FuzzParseUnitKey(f *testing.F) {
	for _, k := range []string{
		"macro/comparator", "macro/", "macro/a/b",
		"class/ladder/3/cat", "class/biasgen/0/noncat", "class//0/cat",
		"class/comparator/-1/cat", "class/comparator/+7/cat", "class/x/1/odd",
		"class/x/1", "class/x/1/cat/extra", "class/x/99999999999999999999/cat",
		"", "bogus",
	} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		macro, index, nonCat, isClass, err := ParseUnitKey(key)
		if err != nil {
			return
		}
		again := keyMacro + macro
		if isClass {
			again = classKey(macro, AnalysisTarget{Index: index, NonCat: nonCat})
		}
		m2, i2, n2, c2, err := ParseUnitKey(again)
		if err != nil {
			t.Fatalf("%q parsed, but its re-formatted key %q does not: %v", key, again, err)
		}
		if m2 != macro || i2 != index || n2 != nonCat || c2 != isClass {
			t.Fatalf("%q → (%q, %d, %v, %v) re-formats to %q → (%q, %d, %v, %v)",
				key, macro, index, nonCat, isClass, again, m2, i2, n2, c2)
		}
	})
}
