package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// steady runs the workload cfg.steady times, each run a fresh process with
// its own seed (or the same seed with -steady-same-seed), and prints per
// metric the median, the quartiles and the interquartile range as a share
// of the median: the figures BENCHMARK.json's bounds are set from.
func steady(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := range cfg.steady {
		seed := cfg.seed
		if !cfg.sameSeed {
			seed += uint64(i)
		}
		cmd := exec.Command(self, "-workload", cfg.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(cfg.trace),
			"-imind", cfg.imind, "-work", cfg.work)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		var rep report
		if err := json.Unmarshal(lastLine(out), &rep); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			return fmt.Errorf("run %d (seed %d): correct=%v failed=%d", i, seed, rep.Correct, rep.Failed)
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "steady %s run %d/%d seed %d done\n", cfg.workload, i+1, cfg.steady, seed)
	}
	if cfg.sameSeed {
		// Counts and the spread reduction are deterministic for a seed: a
		// run that does not repeat them exactly is not reproducible.
		for k, xs := range values {
			if units[k] != "count" && units[k] != "count/op" && k != "spread_reduction_pct" {
				continue
			}
			if slices.Min(xs) != slices.Max(xs) {
				return fmt.Errorf("%s differs between runs of seed %d: %v", k, cfg.seed, xs)
			}
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	slices.Sort(names)
	fmt.Printf("%-30s %-9s %12s %12s %12s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med")
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, q3 := med, med
		if len(xs) >= 2 {
			q1, q3 = quartiles(xs)
		}
		rel := 0.0
		if med != 0 {
			rel = (q3 - q1) / med
		}
		fmt.Printf("%-30s %-9s %12.4f %12.4f %12.4f %9.4f\n", k, units[k], med, q1, q3, rel)
	}
	return nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}
