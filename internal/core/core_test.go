package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "F1", "F2", "F5", "R1", "R2", "R3", "R6", "T1", "T2"}
	got := Registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("T1"); !ok {
		t.Fatal("T1 should exist")
	}
	if _, ok := Lookup("Z9"); ok {
		t.Fatal("Z9 should not exist")
	}
}

// Every experiment must run in quick mode and produce non-trivial output.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, 42, true); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced only %d bytes", e.ID, buf.Len())
			}
		})
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, 42, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"F1", "T1", "T2"} {
		if !strings.Contains(out, "=== "+id) {
			t.Fatalf("RunAll output missing section %s", id)
		}
	}
}

// RunAll with an ID list runs exactly those experiments, in list order.
func TestRunAllSelectsIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, 42, true, "F2", "F1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	f1, f2 := strings.Index(out, "=== F1:"), strings.Index(out, "=== F2:")
	if f1 < 0 || f2 < 0 || f2 > f1 {
		t.Fatalf("want sections F2 then F1, got F2 at %d, F1 at %d", f2, f1)
	}
	if n := strings.Count(out, "\n=== "); n != 2 {
		t.Fatalf("ran %d sections, want 2", n)
	}
}

// An unknown ID anywhere in the list fails with the named error before any
// experiment runs (nothing is written).
func TestRunAllRejectsUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := RunAll(&buf, 42, true, "F1", "Z9")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
	if !strings.Contains(err.Error(), `"Z9"`) {
		t.Fatalf("error %q does not name the unknown ID", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %d bytes before rejecting the ID list", buf.Len())
	}
}

// Quick smoke of key in-band numbers on the quick variants: T1 bands.
func TestT1QuickOutputHasRatios(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Lookup("T1")
	if err := e.Run(&buf, 1, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x") || !strings.Contains(buf.String(), "copy-seq") {
		t.Fatalf("unexpected T1 output: %s", buf.String())
	}
}
