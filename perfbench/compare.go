package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain implements `perfbench compare OLD NEW`: each file holds the
// standard output of one or more runs. It prints, for every workload and
// metric both files have, the median of each side and their ratio. It
// refuses to compare runs taken on different core counts or worker counts.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD NEW")
	}
	var sides [2]map[string]map[string][]float64
	var envs [2]environment
	for i, path := range args {
		runs, env, err := readRuns(path)
		if err != nil {
			return err
		}
		sides[i], envs[i] = runs, env
	}
	if cores(envs[0]) != cores(envs[1]) {
		return fmt.Errorf("runs were taken on different core counts: %s has %s, %s has %s",
			args[0], cores(envs[0]), args[1], cores(envs[1]))
	}
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %8s\n", "workload", "metric", "old median", "new median", "new/old")
	for _, wl := range sortedKeys(sides[0]) {
		for _, m := range sortedKeys(sides[0][wl]) {
			nv, ok := sides[1][wl][m]
			if !ok {
				continue
			}
			old, cur := median(sides[0][wl][m]), median(nv)
			fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %8.4f\n", wl, m, old, cur, cur/old)
		}
	}
	return nil
}

// cores names the core and worker counts a run was taken with.
func cores(e environment) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d par_workers=%d service_workers=%d",
		e.NProc, e.GOMAXPROCS, e.ParWorkers, e.ServiceWorkers)
}

// readRuns collects the metrics of every result line in path by workload,
// each result belonging to the environment line printed before it. All
// runs in one file must share their core counts.
func readRuns(path string) (map[string]map[string][]float64, environment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, environment{}, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	var env environment
	var header struct {
		Env      *environment `json:"env"`
		Workload string       `json:"workload"`
	}
	var seen *environment
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `{"env"`):
			header.Env = nil
			if err := json.Unmarshal([]byte(line), &header); err != nil {
				return nil, env, fmt.Errorf("%s: %w", path, err)
			}
			if seen != nil && cores(*seen) != cores(*header.Env) {
				return nil, env, fmt.Errorf("%s mixes core counts: %s and %s", path, cores(*seen), cores(*header.Env))
			}
			seen, env = header.Env, *header.Env
		case strings.HasPrefix(line, `{"correct"`):
			if seen == nil {
				return nil, env, fmt.Errorf("%s: result line without an environment line before it", path)
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, env, fmt.Errorf("%s: %w", path, err)
			}
			if runs[header.Workload] == nil {
				runs[header.Workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				runs[header.Workload][name] = append(runs[header.Workload][name], m.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, env, fmt.Errorf("%s: %w", path, err)
	}
	if seen == nil {
		return nil, env, fmt.Errorf("%s holds no benchmark run", path)
	}
	return runs, env, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
