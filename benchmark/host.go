package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// provenance describes the host and the commit a run's numbers belong to.
// It is printed before the result line of every run and heads the trace
// file; its numeric part is also reported as host.* per-layer metrics.
func provenance(o options) map[string]any {
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"clients":    clientCount(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"scale":      o.scale,
		"trace":      o.trace,
		"l2_kib":     cacheKiB(2),
		"l3_kib":     cacheKiB(3),
	}
}

func printProvenance(p map[string]any) {
	b, _ := json.Marshal(p) // a map of strings and numbers always encodes
	fmt.Printf("# provenance %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// cacheKiB reads cpu0's cache size at the given level from sysfs, 0 when
// the host does not say.
func cacheKiB(level int) int {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		size, _ := os.ReadFile(dir + "size")
		s := strings.TrimSpace(string(size))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1024
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

// peakRSSMB is VmHWM, the process's peak resident set, 0 where /proc does
// not give it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuJiffies reads the first line of /proc/stat: the CPU time, summed over
// all CPUs since boot, that the hypervisor kept from this guest while it
// had work to run (steal), and the total accounted. Zeros where /proc does
// not give them.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
