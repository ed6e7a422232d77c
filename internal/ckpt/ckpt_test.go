package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// arbitraryState builds a TrainingState whose arrays cover every device
// technology in a non-trivial lifetime position: pulsed, updated, read
// (random streams mid-draw), drifted (PCM differential pairs with unequal
// legs), and with run-time frozen devices.
func arbitraryState(t testing.TB, seed uint64) *TrainingState {
	t.Helper()
	rng := rngutil.New(seed)
	models := []crossbar.Model{
		crossbar.Ideal(), crossbar.RRAM(), crossbar.PCM(),
		crossbar.PCMProjected(), crossbar.FeFET(), crossbar.ECRAM(),
	}
	st := &TrainingState{
		Epoch:     3,
		EpochLoss: []float64{1.9, 1.2, 0.7},
		Extra:     map[string][]byte{"fault-engine": {9, 8, 7, 6}},
	}
	for i, m := range models {
		a := crossbar.NewArray(4+i%3, 3+i%2, m, crossbar.DefaultConfig(), rng.Child(m.Name()))
		u := make(tensor.Vector, a.Rows())
		v := make(tensor.Vector, a.Cols())
		for k := range u {
			u[k] = rng.Uniform(-1, 1)
		}
		for k := range v {
			v[k] = rng.Uniform(-1, 1)
		}
		a.PulseAll(5, true)
		a.Update(0.3, u, v)
		a.Forward(v)
		a.AdvanceTime(97) // PCM pairs mid-drift
		a.Update(-0.2, u, v)
		a.FreezeAt(0, 0, 0.33)
		st.Arrays = append(st.Arrays, a.ExportState())
	}
	st.Layers = []LayerState{
		{Kind: "plain"},
		{Kind: "tikitaka", Ints: []int64{1, 2}},
		{Kind: "mixedprec", Floats: [][]float64{{0.01, -0.02, 0.03}}},
	}
	return st
}

// TestSaveLoadRoundTrip is the core property: an arbitrary training state
// survives the durable save/load cycle byte-for-byte (compared through the
// canonical encoding, which is what training actually restores from).
func TestSaveLoadRoundTrip(t *testing.T) {
	st := arbitraryState(t, 41)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.Save(st)
	if err != nil {
		t.Fatal(err)
	}
	got, recov, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || recov.Path != path || len(recov.Rejected) != 0 {
		t.Fatalf("load: state=%v recovery=%+v", got != nil, recov)
	}
	a, _ := encode(st)
	b, err := encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("loaded state does not round-trip byte-for-byte")
	}
	// And the array states inside restore onto live arrays exactly
	// (device-level round-trip is pinned in package crossbar; here we pin
	// that the file format preserved them).
	if got.Arrays[2].Model != "pcm" {
		t.Fatalf("array order/model not preserved: %q", got.Arrays[2].Model)
	}
}

// TestTruncationDetectedAtEveryOffset: a checkpoint truncated at every
// possible byte offset must be rejected as corrupt — no prefix of a valid
// file is a valid file.
func TestTruncationDetectedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	path, err := s.Save(arbitraryState(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(t.TempDir(), "ckpt-000003.ckpt")
	for off := 0; off < len(raw); off++ {
		if err := os.WriteFile(victim, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(victim); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at offset %d/%d not detected: %v", off, len(raw), err)
		}
	}
}

// TestBitFlipDetectedEverywhere: flipping any single byte — header or
// payload — must be caught by the magic/version/length checks or the CRC.
func TestBitFlipDetectedEverywhere(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	path, err := s.Save(arbitraryState(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	victim := filepath.Join(t.TempDir(), "ckpt-000003.ckpt")
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(victim, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(victim); err == nil {
			t.Fatalf("bit flip at offset %d/%d not detected", off, len(raw))
		}
	}
}

// TestFallbackToPreviousGood: recovery must refuse a corrupted newest
// checkpoint and fall back to the previous good file, reporting the
// rejection.
func TestFallbackToPreviousGood(t *testing.T) {
	s, _ := Open(t.TempDir())
	old := arbitraryState(t, 3)
	old.Epoch = 2
	if _, err := s.Save(old); err != nil {
		t.Fatal(err)
	}
	newer := arbitraryState(t, 5)
	newer.Epoch = 4
	newPath, err := s.Save(newer)
	if err != nil {
		t.Fatal(err)
	}
	// Torn write on the newest file.
	raw, _ := os.ReadFile(newPath)
	if err := os.WriteFile(newPath, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, recov, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 2 {
		t.Fatalf("expected fallback to epoch-2 checkpoint, got %+v", got)
	}
	if len(recov.Rejected) != 1 || !strings.Contains(recov.Rejected[0], "ckpt-000004") {
		t.Fatalf("rejection not reported: %+v", recov.Rejected)
	}
}

// TestLoadLatestFreshDirectory: an empty store is a fresh start, not an
// error.
func TestLoadLatestFreshDirectory(t *testing.T) {
	s, _ := Open(t.TempDir())
	st, recov, err := s.LoadLatest()
	if err != nil || st != nil {
		t.Fatalf("fresh dir: state=%v err=%v", st, err)
	}
	if recov.LastWALEpoch != -1 || recov.Replayed() != 0 {
		t.Fatalf("fresh recovery = %+v", recov)
	}
}

// TestWALTornTail: a log truncated mid-record yields the intact prefix and
// flags the torn tail.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for e := 0; e < 4; e++ {
		if err := s.AppendStep(e, 1.0/float64(e+1), int64(1000*(e+1))); err != nil {
			t.Fatal(err)
		}
	}
	raw, _ := os.ReadFile(s.walPath())
	if err := os.WriteFile(s.walPath(), raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := readWAL(s.walPath())
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("torn tail not detected")
	}
	if len(recs) != 3 || recs[2].Epoch != 2 || recs[2].Pulses != 3000 {
		t.Fatalf("intact prefix wrong: %+v", recs)
	}
}

// TestRecoveryReplayedAccounting: WAL says the run completed epochs 0..5
// but the newest durable checkpoint holds 3 completed epochs → recovery
// must report 3 replayed epochs.
func TestRecoveryReplayedAccounting(t *testing.T) {
	s, _ := Open(t.TempDir())
	st := arbitraryState(t, 13)
	st.Epoch = 3
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 6; e++ {
		if err := s.AppendStep(e, 0.5, int64(e)); err != nil {
			t.Fatal(err)
		}
	}
	_, recov, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if recov.Epoch != 3 || recov.LastWALEpoch != 5 || recov.Replayed() != 3 {
		t.Fatalf("recovery accounting = %+v (replayed %d)", recov, recov.Replayed())
	}
}

// simulateCrashAt runs save with a CrashFn armed at one site and recovers
// the panic, returning whether it fired.
func simulateCrashAt(t *testing.T, s *Store, st *TrainingState, site string) (fired bool) {
	t.Helper()
	s.Crash = func(at string, seq int) {
		if at == site {
			panic(Crash{Site: at, Seq: seq})
		}
	}
	defer func() {
		s.Crash = nil
		if r := recover(); r != nil {
			if _, ok := r.(Crash); !ok {
				panic(r)
			}
			fired = true
		}
	}()
	_, _ = s.Save(st)
	return false
}

// TestCrashSitesLeavePreviousCheckpointLoadable walks every kill point of
// the durability protocol and checks the invariant the whole design rests
// on: after a crash anywhere, LoadLatest still returns a valid state — the
// new checkpoint if the rename committed, the previous one otherwise.
func TestCrashSitesLeavePreviousCheckpointLoadable(t *testing.T) {
	for _, site := range []string{"ckpt-mid-write", "wal-appended", "ckpt-committed"} {
		t.Run(site, func(t *testing.T) {
			s, _ := Open(t.TempDir())
			base := arbitraryState(t, 17)
			base.Epoch = 1
			if _, err := s.Save(base); err != nil {
				t.Fatal(err)
			}
			next := arbitraryState(t, 19)
			next.Epoch = 2
			if !simulateCrashAt(t, s, next, site) {
				t.Fatalf("site %s never fired", site)
			}
			got, recov, err := s.LoadLatest()
			if err != nil || got == nil {
				t.Fatalf("recovery after %s: state=%v err=%v (%+v)", site, got != nil, err, recov)
			}
			wantEpoch := 1
			if site == "ckpt-committed" { // rename already durable
				wantEpoch = 2
			}
			if got.Epoch != wantEpoch {
				t.Fatalf("after %s: recovered epoch %d, want %d", site, got.Epoch, wantEpoch)
			}
			if len(recov.Rejected) != 0 {
				t.Fatalf("after %s: unexpected rejections %v", site, recov.Rejected)
			}
		})
	}
}
