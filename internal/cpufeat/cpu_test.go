package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHasAVX2MatchesProcCPUInfo cross-checks the CPUID probe against the
// flags the Linux kernel reports, where that file exists.
func TestHasAVX2MatchesProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if HasAVX2() {
			t.Fatal("HasAVX2 true off amd64")
		}
		return
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		want := false
		for _, f := range strings.Fields(line) {
			want = want || f == "avx2"
		}
		if HasAVX2() != want {
			t.Fatalf("HasAVX2() = %v, /proc/cpuinfo avx2 = %v", HasAVX2(), want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
