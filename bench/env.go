package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment stamps a results file with what produced it, so a number
// can be traced to a commit, a toolchain and a host.
type environment struct {
	Commit     string   `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool     `json:"dirty"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Repeats    int      `json:"repeats"`
	RunOrder   []string `json:"run_order"` // every child run, in the order it ran
}

func stampEnvironment(o suiteOptions) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Repeats:    o.repeats,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
