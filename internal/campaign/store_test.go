package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestFileStoreRoundtrip: the single-file backend saves atomically and
// loads back exactly what was saved, ignoring the fingerprint argument
// (single slot).
func TestFileStoreRoundtrip(t *testing.T) {
	st := FileStore{Path: filepath.Join(t.TempDir(), "sub", "run.ckpt")}
	if ck, err := st.Load("anything"); err != nil || ck != nil {
		t.Fatalf("missing file: ck=%v err=%v", ck, err)
	}
	in := &Checkpoint{Version: checkpointVersion, Fingerprint: "cfg-a", Units: 1,
		Results: map[string]json.RawMessage{"u": json.RawMessage(`{"value":7}`)}}
	if err := st.Save(in); err != nil {
		t.Fatal(err)
	}
	out, err := st.Load("some-other-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Fingerprint != "cfg-a" || string(out.Results["u"]) != `{"value":7}` {
		t.Fatalf("loaded %+v", out)
	}
	fps, err := st.List()
	if err != nil || !reflect.DeepEqual(fps, []string{"cfg-a"}) {
		t.Fatalf("list = %v, %v", fps, err)
	}
}

// TestFileStoreVersionGuard: a checkpoint of a different on-disk format
// refuses to load instead of silently resuming garbage.
func TestFileStoreVersionGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte(`{"version":99,"fingerprint":"x","results":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (FileStore{Path: path}).Load(""); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestDirStoreRoundtrip: the content-addressed backend keys checkpoints
// by fingerprint, keeps independent configurations apart, and lists
// them all.
func TestDirStoreRoundtrip(t *testing.T) {
	st := DirStore{Dir: filepath.Join(t.TempDir(), "ckpts")}
	if fps, err := st.List(); err != nil || fps != nil {
		t.Fatalf("empty dir: %v, %v", fps, err)
	}
	for _, fp := range []string{"cfg-a", "cfg-b"} {
		ck := &Checkpoint{Version: checkpointVersion, Fingerprint: fp, Units: 1,
			Results: map[string]json.RawMessage{"u": json.RawMessage(`{"value":1}`)}}
		if err := st.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	if ck, err := st.Load("cfg-absent"); err != nil || ck != nil {
		t.Fatalf("absent fingerprint: ck=%v err=%v", ck, err)
	}
	ck, err := st.Load("cfg-b")
	if err != nil || ck == nil || ck.Fingerprint != "cfg-b" {
		t.Fatalf("load cfg-b: %+v, %v", ck, err)
	}
	fps, err := st.List()
	if err != nil || !reflect.DeepEqual(fps, []string{"cfg-a", "cfg-b"}) {
		t.Fatalf("list = %v, %v", fps, err)
	}
}

// TestDirStoreAddressMismatch: a file whose content does not match its
// content address is corruption, not a configuration change.
func TestDirStoreAddressMismatch(t *testing.T) {
	st := DirStore{Dir: t.TempDir()}
	if err := st.Save(&Checkpoint{Version: checkpointVersion, Fingerprint: "cfg-a"}); err != nil {
		t.Fatal(err)
	}
	// Graft cfg-a's file onto cfg-b's address.
	if err := os.Rename(st.path("cfg-a"), st.path("cfg-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("cfg-b"); err == nil {
		t.Fatal("want corruption error on address mismatch")
	}
}

// TestExecuteWithDirStore: a campaign checkpointing through a shared
// DirStore resumes by fingerprint — two configurations coexist in one
// store without poisoning each other.
func TestExecuteWithDirStore(t *testing.T) {
	st := DirStore{Dir: t.TempDir()}
	optsA := Options{Workers: 2, Store: st, Fingerprint: "cfg-a", Decode: decodeInt}
	optsB := Options{Workers: 2, Store: st, Fingerprint: "cfg-b", Decode: decodeInt}
	first, err := Execute(context.Background(), optsA, fanoutRoots(2, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), optsB, fanoutRoots(1, 1, nil)); err != nil {
		t.Fatal(err)
	}

	var ran sync.Map
	optsA.Resume = true
	second, err := Execute(context.Background(), optsA, fanoutRoots(2, 3, &ran))
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	ran.Range(func(_, _ any) bool { live++; return true })
	if live != 0 {
		t.Fatalf("%d units ran live on resume", live)
	}
	if second.Stats.Restored != 8 {
		t.Fatalf("restored = %d, want 8", second.Stats.Restored)
	}
	if !reflect.DeepEqual(collect(t, first), collect(t, second)) {
		t.Fatal("resumed results differ")
	}
	if fps, err := st.List(); err != nil || !reflect.DeepEqual(fps, []string{"cfg-a", "cfg-b"}) {
		t.Fatalf("list = %v, %v", fps, err)
	}
}

// storeContention is the last-writer-wins contract check: many
// goroutines concurrently Save the same fingerprint with distinct
// payloads; every concurrent Load must observe one of the saved
// checkpoints in full (no torn reads, no mixed payloads), and the final
// Load must be one writer's complete checkpoint. List stays
// deterministic (sorted) throughout.
func storeContention(t *testing.T, st Store) {
	t.Helper()
	const writers, rounds = 8, 20
	payload := func(w, r int) *Checkpoint {
		tag := fmt.Sprintf(`{"writer":%d,"round":%d}`, w, r)
		return &Checkpoint{
			Version:     checkpointVersion,
			Fingerprint: "contended",
			Units:       w,
			Results: map[string]json.RawMessage{
				"a": json.RawMessage(tag),
				"b": json.RawMessage(tag),
			},
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Save(payload(w, r)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ck, err := st.Load("contended")
				if err != nil {
					errs <- err
					return
				}
				if ck == nil {
					continue // reader outran the first write
				}
				// Untorn: both payload halves must agree on the writer.
				if string(ck.Results["a"]) != string(ck.Results["b"]) {
					errs <- fmt.Errorf("torn read: a=%s b=%s", ck.Results["a"], ck.Results["b"])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ck, err := st.Load("contended")
	if err != nil || ck == nil {
		t.Fatalf("final load: %v, %v", ck, err)
	}
	if string(ck.Results["a"]) != string(ck.Results["b"]) {
		t.Fatalf("final checkpoint torn: a=%s b=%s", ck.Results["a"], ck.Results["b"])
	}
	fps, err := st.List()
	if err != nil || !reflect.DeepEqual(fps, []string{"contended"}) {
		t.Fatalf("list after contention = %v, %v", fps, err)
	}
}

// TestDirStoreContention: concurrent same-fingerprint saves to the
// content-addressed directory are last-writer-wins (atomic rename), and
// readers never see a torn checkpoint.
func TestDirStoreContention(t *testing.T) {
	storeContention(t, DirStore{Dir: t.TempDir()})
}
