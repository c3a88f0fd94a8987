package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatability runs every workload in two interleaved sets of k runs, each
// run a fresh process with its own seed, and compares the sets' medians per
// end-to-end metric against the metric's bound. With four or more runs per
// workload it also prints the spread the driver gates on: the distance
// between the first and third quartile of all runs over their median. It
// returns the process's exit code.
func repeatability(k int, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// values[workload][set][metric] holds one value per run.
	values := map[string]*[2]map[string][]float64{}
	failed := false
	seed := 1
	for rep := 0; rep < k; rep++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				r, err := runChild(self, w.name, seed, seconds)
				seed++
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if !r.Correct || r.Failed != 0 {
					fmt.Printf("%s run %d set %c: %d failed operations\n", w.name, rep, 'A'+set, r.Failed)
					failed = true
				}
				v := values[w.name]
				if v == nil {
					v = &[2]map[string][]float64{{}, {}}
					values[w.name] = v
				}
				for name, m := range r.Metrics {
					v[set][name] = append(v[set][name], m.Value)
				}
			}
		}
	}
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			a, b := values[w.name][0][d.name], values[w.name][1][d.name]
			ma, mb := median(a), median(b)
			// diff is how much worse the second set is than the first.
			diff := (mb - ma) / ma
			if d.better == "higher" {
				diff = -diff
			}
			spread := iqrShare(append(append([]float64(nil), a...), b...))
			verdict := ""
			if diff > d.bound || (d.name != "setup_s" && spread > d.bound) {
				verdict = "  EXCEEDS"
				failed = true
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%%s\n",
				w.name, d.name, ma, mb, 100*diff, 100*spread, 100*d.bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one untraced benchmark process and parses its last line.
func runChild(self, workload string, seed int, seconds float64) (*report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var r report
	if jerr := json.Unmarshal(last, &r); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %w", jerr)
	}
	return &r, nil
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's statistics.quantiles(xs,
// n=4) gives. It is 0 for fewer than four values.
func iqrShare(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	sort.Float64s(xs)
	q := func(i int) float64 {
		// The exclusive method: position i*(n+1)/4 among 1-based ranks.
		n := len(xs)
		j := i * (n + 1) / 4
		rem := i * (n + 1) % 4
		if j < 1 {
			j, rem = 1, 0
		}
		if j > n-1 {
			j, rem = n-1, 4
		}
		return (xs[j-1]*float64(4-rem) + xs[j]*float64(rem)) / 4
	}
	return (q(3) - q(1)) / median(xs)
}
