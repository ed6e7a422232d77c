package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Store manages a checkpoint directory: durable saves, WAL step records,
// retention, and recovery. One Store serves one training run's directory;
// it is not safe for concurrent use (training is single-threaded through
// the epoch loop that drives it).
type Store struct {
	dir string
	// Keep is how many validated checkpoint files are retained; older ones
	// are pruned after each successful save. At least 2, so a checkpoint
	// that turns out corrupt on recovery always has a predecessor to fall
	// back to.
	Keep int
	// Crash is the chaos hook threaded into the durability protocol; nil in
	// production.
	Crash CrashFn
	// Obs, when non-nil, receives save/WAL/recovery instrumentation: record
	// and save counts are deterministic (stable); fsync and save latencies
	// are wall-clock (volatile).
	Obs *obs.Registry
}

// Open creates (if needed) and wraps a checkpoint directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, Keep: 2}, nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, walName) }

// fileFor names the checkpoint file of an epoch; zero-padding keeps
// lexicographic and numeric order identical.
func (s *Store) fileFor(epoch int) string { return fmt.Sprintf("ckpt-%06d.ckpt", epoch) }

// AppendStep logs one completed training epoch to the WAL. Recovery uses
// these records to pinpoint the last epoch the crashed run had reached, so
// the campaign can report replayed work precisely.
func (s *Store) AppendStep(epoch int, loss float64, pulses int64) error {
	return s.logWAL(WalRecord{Type: RecEpoch, Epoch: epoch, Loss: loss, Pulses: pulses})
}

// Save writes st as the newest checkpoint using the atomic protocol
// documented on the package: temp write + fsync, WAL intent, rename +
// directory fsync, WAL commit, prune. It returns the final file path.
func (s *Store) Save(st *TrainingState) (string, error) {
	t0 := time.Now()
	name := s.fileFor(st.Epoch)
	final := filepath.Join(s.dir, name)
	tmp := final + ".tmp"

	payload, err := encode(st)
	if err != nil {
		return "", err
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if err := writeEnvelope(f, payload, st.Epoch, s.Crash); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}

	if err := s.logWAL(WalRecord{Type: RecIntent, Epoch: st.Epoch, File: name}); err != nil {
		return "", err
	}
	if s.Crash != nil {
		s.Crash("wal-appended", st.Epoch)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	if err := syncDir(s.dir); err != nil {
		return "", err
	}
	if err := s.logWAL(WalRecord{Type: RecCommit, Epoch: st.Epoch, File: name}); err != nil {
		return "", err
	}
	if s.Crash != nil {
		s.Crash("ckpt-committed", st.Epoch)
	}
	s.prune()
	s.noteSave(t0)
	return final, nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// checkpointFiles lists the directory's checkpoint files sorted
// newest-first (by epoch, thanks to the padded names).
func (s *Store) checkpointFiles() []string {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "ckpt-*.ckpt"))
	sort.Sort(sort.Reverse(sort.StringSlice(matches)))
	return matches
}

// prune removes checkpoint files beyond Keep and any stray temp files from
// crashed saves. Best-effort: retention is an optimization, not a
// correctness requirement, so errors are ignored.
func (s *Store) prune() {
	keep := s.Keep
	if keep < 2 {
		keep = 2
	}
	files := s.checkpointFiles()
	for i, f := range files {
		if i >= keep {
			os.Remove(f)
		}
	}
	tmps, _ := filepath.Glob(filepath.Join(s.dir, "ckpt-*.ckpt.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}
}

// Recovery reports what LoadLatest found: which file (if any) was loaded,
// which candidates were rejected as corrupt and why, and how far the
// crashed run had progressed per the WAL — the inputs to the campaign's
// replayed-epoch accounting.
type Recovery struct {
	// Path is the loaded checkpoint file ("" when starting fresh).
	Path string
	// Epoch is the resume epoch: the loaded state's epoch, or 0 fresh.
	Epoch int
	// Rejected lists corrupt candidate files that were refused, newest
	// first, with the validation failure appended.
	Rejected []string
	// LastWALEpoch is the highest completed epoch the WAL records (-1 when
	// the log is empty): epochs in (Epoch, LastWALEpoch] were completed by
	// the crashed run and must be replayed.
	LastWALEpoch int
	// TornWAL reports whether the log had a truncated/corrupt tail
	// (discarded, expected after a crash mid-append).
	TornWAL bool
}

// Replayed returns how many completed epochs the recovered run must redo.
func (r Recovery) Replayed() int {
	if r.LastWALEpoch+1 <= r.Epoch {
		return 0
	}
	return r.LastWALEpoch + 1 - r.Epoch
}

// LoadLatest finds the newest valid checkpoint. Corrupted or truncated
// candidates are rejected — never loaded silently — and recovery falls
// back to the next older file; with no valid checkpoint it returns a nil
// state (start from scratch). The error return is reserved for real I/O
// failures (e.g. unreadable directory), not corruption.
func (s *Store) LoadLatest() (*TrainingState, Recovery, error) {
	rec := Recovery{LastWALEpoch: -1}
	recs, torn, err := readWAL(s.walPath())
	if err != nil {
		return nil, rec, err
	}
	rec.TornWAL = torn
	for _, r := range recs {
		if r.Type == RecEpoch && r.Epoch > rec.LastWALEpoch {
			rec.LastWALEpoch = r.Epoch
		}
	}
	for _, path := range s.checkpointFiles() {
		st, err := ReadFile(path)
		if err != nil {
			rec.Rejected = append(rec.Rejected, fmt.Sprintf("%s: %s", filepath.Base(path), trimPath(err)))
			continue
		}
		rec.Path = path
		rec.Epoch = st.Epoch
		s.noteRecovery(rec)
		return st, rec, nil
	}
	s.noteRecovery(rec)
	return nil, rec, nil
}

// trimPath shortens validation errors for the recovery report.
func trimPath(err error) string {
	msg := err.Error()
	if i := strings.LastIndex(msg, ": "); i >= 0 && strings.Contains(msg[:i], "/") {
		return msg[i+2:]
	}
	return msg
}
