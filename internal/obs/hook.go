package obs

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// Hook is the shared observability wiring for the campaign binaries: three
// flags (-obs-addr, -metrics-out, -trace-out) and, on binaries that name
// the series it requires, -obs-selfcheck; a Start that builds the
// registry/tracer and boots the optional HTTP endpoint; a SelfCheck that
// probes that endpoint; and a Finish that writes the requested dump files.
// When none of the flags are set, Start leaves everything nil and the
// whole layer stays disabled (free).
type Hook struct {
	Addr       string // -obs-addr: listen address for /metrics, /traces, /debug/pprof/
	MetricsOut string // -metrics-out: write the deterministic (stable) metric dump here on exit
	TraceOut   string // -trace-out: write the trace ring as JSON here on exit

	Registry  *Registry
	Tracer    *Tracer
	server    *Server
	selfcheck bool     // -obs-selfcheck: probe the HTTP endpoint in SelfCheck
	series    []string // the /metrics series SelfCheck requires
}

// BindFlags registers the observability flags on fs (the process FlagSet).
// With series given it also registers -obs-selfcheck, whose probe requires
// each of them on /metrics: a family name, or a family with its labels.
func (h *Hook) BindFlags(fs *flag.FlagSet, series ...string) {
	fs.StringVar(&h.Addr, "obs-addr", "", "serve /metrics, /traces and /debug/pprof/ on this address (empty = off)")
	fs.StringVar(&h.MetricsOut, "metrics-out", "", "write deterministic metric dump to this file on exit (empty = off)")
	fs.StringVar(&h.TraceOut, "trace-out", "", "write trace span dump (JSON) to this file on exit (empty = off)")
	if len(series) > 0 {
		h.series = series
		fs.BoolVar(&h.selfcheck, "obs-selfcheck", false, "after the campaign, probe /metrics, /traces and /debug/pprof/profile over HTTP (requires -obs-addr)")
	}
}

// Enabled reports whether any observability flag was set.
func (h *Hook) Enabled() bool {
	return h.Addr != "" || h.MetricsOut != "" || h.TraceOut != ""
}

// Start builds the registry and tracer (when any flag asks for them),
// installs them as the process defaults, and boots the HTTP endpoint if
// -obs-addr was given. Returns an error for a failed listen, or for
// -obs-selfcheck without -obs-addr.
func (h *Hook) Start() error {
	if h.selfcheck && h.Addr == "" {
		return errors.New("-obs-selfcheck requires -obs-addr")
	}
	if !h.Enabled() {
		return nil
	}
	h.Registry = NewRegistry()
	h.Tracer = NewTracer(0)
	SetDefault(h.Registry, h.Tracer)
	if h.Addr != "" {
		s, err := Serve(h.Addr, h.Registry, h.Tracer)
		if err != nil {
			return err
		}
		h.server = s
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /traces /debug/pprof/ on http://%s\n", s.Addr())
	}
	return nil
}

// Finish writes the -metrics-out and -trace-out dumps and shuts the HTTP
// endpoint down. Safe to call when Start never ran.
func (h *Hook) Finish() error {
	var firstErr error
	if h.MetricsOut != "" && h.Registry != nil {
		if err := writeFileWith(h.MetricsOut, func(w *os.File) { h.Registry.WriteStable(w) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if h.TraceOut != "" && h.Tracer != nil {
		if err := writeFileWith(h.TraceOut, func(w *os.File) { h.Tracer.WriteJSON(w) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if h.server != nil {
		if err := h.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		h.server = nil
	}
	return firstErr
}

// SelfCheck probes the live endpoint when -obs-selfcheck is set (it is a
// no-op otherwise): /metrics, /traces and a one-second CPU profile must
// each answer 200 with a non-empty body, and /metrics must carry every
// series BindFlags named, from the run that just finished. Each path that
// passes prints one "obs-selfcheck: GET" line on stdout.
func (h *Hook) SelfCheck() error {
	if !h.selfcheck {
		return nil
	}
	return selfCheck(h.server, os.Stdout, h.series)
}

func selfCheck(s *Server, w io.Writer, series []string) error {
	if s == nil {
		return fmt.Errorf("obs-selfcheck: HTTP endpoint is not running")
	}
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	for _, path := range []string{"/metrics", "/traces", "/debug/pprof/profile?seconds=1"} {
		body, err := fetch(client, base+path)
		if err != nil {
			return fmt.Errorf("obs-selfcheck: %s: %w", path, err)
		}
		if path == "/metrics" {
			for _, name := range series {
				if !bytes.Contains(body, []byte(name)) {
					return fmt.Errorf("obs-selfcheck: /metrics is missing %s", name)
				}
			}
		}
		fmt.Fprintf(w, "obs-selfcheck: GET %-32s %d bytes OK\n", path, len(body))
	}
	return nil
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	return body, nil
}

func writeFileWith(path string, fill func(*os.File)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fill(f)
	return f.Close()
}
