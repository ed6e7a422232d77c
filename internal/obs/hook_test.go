package obs

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
)

// TestHookSelfCheckFlag pins the flag wiring: -obs-selfcheck exists only
// on binaries that name the series it requires, needs -obs-addr, and
// leaves SelfCheck a no-op when unset.
func TestHookSelfCheckFlag(t *testing.T) {
	var plain Hook
	fs := flag.NewFlagSet("plain", flag.ContinueOnError)
	plain.BindFlags(fs)
	if fs.Lookup("obs-selfcheck") != nil {
		t.Fatal("-obs-selfcheck bound without any required series")
	}
	if err := plain.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck without the flag: %v", err)
	}

	var h Hook
	fs = flag.NewFlagSet("checked", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	h.BindFlags(fs, "probe_total")
	if err := fs.Parse([]string{"-obs-selfcheck"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err == nil || !strings.Contains(err.Error(), "requires -obs-addr") {
		t.Fatalf("Start with -obs-selfcheck and no -obs-addr: err = %v", err)
	}
}

// TestSelfCheckLiveServer probes a live Server: the check passes, one
// "obs-selfcheck: GET" line per path, when every required series is on
// /metrics, and fails naming the series that is missing.
func TestSelfCheckLiveServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total", "probe counter").Inc()
	reg.Counter(Series("probe_node_total", "node", "0"), "per-node probe counter").Inc()
	s, err := Serve("127.0.0.1:0", reg, NewTracer(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := selfCheck(s, io.Discard, []string{"probe_total", "absent_total"}); err == nil ||
		err.Error() != "obs-selfcheck: /metrics is missing absent_total" {
		t.Fatalf("missing series: err = %v", err)
	}

	var out bytes.Buffer
	if err := selfCheck(s, &out, []string{"probe_total", `probe_node_total{node="0"}`}); err != nil {
		t.Fatalf("present series: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	for i, path := range []string{"/metrics", "/traces", "/debug/pprof/profile?seconds=1"} {
		if i >= len(lines) || !strings.HasPrefix(lines[i], "obs-selfcheck: GET "+path+" ") || !strings.HasSuffix(lines[i], " bytes OK") {
			t.Fatalf("selfcheck output line %d for %s: %q", i, path, out.String())
		}
	}
	if len(lines) != 3 {
		t.Fatalf("selfcheck printed %d lines, want 3: %q", len(lines), out.String())
	}

	if err := selfCheck(nil, io.Discard, nil); err == nil {
		t.Fatal("selfCheck with no server passed")
	}
}
