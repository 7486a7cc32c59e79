package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSets runs every workload, each in a process of its own (fresh heap,
// pools and placement cache), o.repeat times, in both modes, and prints
// every metric by name with its unit. With -check it fails when the sets
// disagree on an end-to-end metric by more than that metric's own bound.
func runSets(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	// sets[workload][metric] holds one value per set.
	sets := map[string]map[string][]float64{}
	ok := true
	for set := 0; set < o.repeat; set++ {
		for _, def := range workloads {
			for _, trace := range []int{0, 1} {
				if trace == 1 && o.check {
					continue // -check compares end-to-end metrics only
				}
				res, err := runChild(self, def.name, trace, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
					return 1
				}
				ok = ok && res.Correct
				fmt.Printf("== set %d  %s  trace %d  correct %v  attempted %d  failed %d\n", set+1, def.name, trace, res.Correct, res.Attempted, res.Failed)
				printMetrics(res, trace)
				if trace == 0 {
					if sets[def.name] == nil {
						sets[def.name] = map[string][]float64{}
					}
					for name, m := range res.Metrics {
						sets[def.name][name] = append(sets[def.name][name], m.Value)
					}
				}
			}
		}
	}
	if o.check {
		for _, def := range workloads {
			for _, m := range endToEndMetrics {
				v := sets[def.name][m.name]
				if s := spread(v); s > m.bound {
					ok = false
					fmt.Printf("DISAGREE %s %s: %.6g over %d sets differ by %.1f%% of their median, bound %.0f%%\n",
						def.name, m.name, v, len(v), 100*s, 100*m.bound)
				}
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func printMetrics(res *result, trace int) {
	for _, m := range declaredMetrics(trace) {
		fmt.Printf("%-36s %16.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, workload string, trace int, o options) (*result, error) {
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %v", jerr)
	}
	return &res, nil
}
