package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// Checkpoint is the persisted state of a campaign: the configuration
// fingerprint plus every completed unit's marshalled result, keyed by
// unit key. A resumed campaign skips any unit whose key is present and
// decodable.
type Checkpoint struct {
	Version     int                        `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Units       int                        `json:"units"`
	Results     map[string]json.RawMessage `json:"results"`
}

// Store persists campaign checkpoints keyed by configuration
// fingerprint, so campaigns survive process restarts and resume from
// their last flush. Implementations must be safe for concurrent use by
// independent campaigns (the job server shares one Store across every
// job); writes of a single fingerprint are additionally serialised by
// the engine's checkpoint mutex.
type Store interface {
	// Save persists ck under ck.Fingerprint, atomically: a crash mid-
	// write must never truncate a previously saved checkpoint.
	Save(ck *Checkpoint) error
	// Load returns the checkpoint recorded for fingerprint, or nil when
	// none exists. A single-slot implementation (FileStore) returns
	// whatever it holds regardless of fingerprint — the engine surfaces
	// the mismatch as a configuration error rather than silently
	// starting fresh.
	Load(fingerprint string) (*Checkpoint, error)
	// List enumerates the fingerprints with a stored checkpoint.
	List() ([]string, error)
}

// FileStore is the historical single-file checkpoint backend: one
// atomic-JSON document at a fixed path, holding the checkpoint of
// exactly one configuration: dotest's -checkpoint file.
type FileStore struct {
	// Path of the JSON checkpoint file.
	Path string
}

// String names the store in engine errors: the checkpoint path.
func (s FileStore) String() string { return s.Path }

// Load reads the checkpoint; a missing file is not an error (nil
// checkpoint), anything unreadable or of the wrong version is. The
// fingerprint argument is ignored: the single slot holds whatever was
// last saved, and the engine performs the mismatch check.
func (s FileStore) Load(string) (*Checkpoint, error) {
	return readCheckpointFile(s.Path)
}

// Save atomically persists ck. Write-to-temp-then-rename keeps a crash
// from truncating the previous checkpoint.
func (s FileStore) Save(ck *Checkpoint) error {
	return writeCheckpointFile(s.Path, ck)
}

// List returns the stored checkpoint's fingerprint (empty when the file
// does not exist).
func (s FileStore) List() ([]string, error) {
	ck, err := readCheckpointFile(s.Path)
	if err != nil || ck == nil {
		return nil, err
	}
	return []string{ck.Fingerprint}, nil
}

// DirStore is the content-addressed checkpoint backend: one file per
// configuration fingerprint inside a directory, named by the
// fingerprint's SHA-256. Many campaigns with different configurations
// share one DirStore — the job server's daemon-restart persistence.
type DirStore struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
}

// ckptExt marks checkpoint files inside a DirStore directory.
const ckptExt = ".ckpt.json"

// String names the store in engine errors.
func (s DirStore) String() string { return s.Dir }

// path maps a fingerprint to its content address inside the directory.
func (s DirStore) path(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return filepath.Join(s.Dir, hex.EncodeToString(sum[:16])+ckptExt)
}

// Load reads the checkpoint stored for fingerprint (nil when absent).
// The stored fingerprint is cross-checked against the address: a
// mismatch means corruption, not a configuration change.
func (s DirStore) Load(fingerprint string) (*Checkpoint, error) {
	ck, err := readCheckpointFile(s.path(fingerprint))
	if err != nil || ck == nil {
		return nil, err
	}
	if ck.Fingerprint != fingerprint {
		return nil, fmt.Errorf("campaign: checkpoint %s holds fingerprint %q, not the %q it is addressed by",
			s.path(fingerprint), ck.Fingerprint, fingerprint)
	}
	return ck, nil
}

// Save atomically persists ck under its fingerprint's address. The
// temporary file is unique per save (not just per fingerprint), so
// concurrent saves — different campaigns, or a daemon and a worker
// flushing the same fingerprint — are last-writer-wins through atomic
// renames, never a torn mix of two writers' bytes.
func (s DirStore) Save(ck *Checkpoint) error {
	return writeCheckpointFile(s.path(ck.Fingerprint), ck)
}

// List enumerates the stored fingerprints, sorted.
func (s DirStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: list checkpoints: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ckptExt) {
			continue
		}
		ck, err := readCheckpointFile(filepath.Join(s.Dir, e.Name()))
		if err != nil || ck == nil {
			continue // a torn or foreign file must not fail enumeration
		}
		out = append(out, ck.Fingerprint)
	}
	sort.Strings(out)
	return out, nil
}

// readCheckpointFile reads one checkpoint document; a missing file is
// not an error (nil checkpoint), anything unreadable or of the wrong
// version is.
func readCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	return parseCheckpoint(data, path)
}

// parseCheckpoint decodes one checkpoint document (name labels errors).
func parseCheckpoint(data []byte, name string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint %s: %w", name, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d",
			name, ck.Version, checkpointVersion)
	}
	return &ck, nil
}

// writeCheckpointFile atomically persists ck to path via a temp file
// unique to this call (write-to-temp-then-rename). A fixed temp name
// would let two concurrent writers of the same path interleave write
// and rename and commit a torn file; a per-call temp makes concurrent
// saves strictly last-writer-wins.
func writeCheckpointFile(path string, ck *Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("campaign: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("campaign: checkpoint dir: %w", err)
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("campaign: checkpoint temp: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: commit checkpoint: %w", err)
	}
	return nil
}
