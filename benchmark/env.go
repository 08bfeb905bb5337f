package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// loadWorkers is the number of goroutines the benchmark uses to
// generate inputs and, at most, to load the system: never more than the
// machine has processors, so the load generator does not queue behind
// itself.
var loadWorkers = max(1, min(2, runtime.NumCPU()))

// environment is recorded with every output, so a number can always be
// traced to the machine shape and toolchain that produced it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
}

func currentEnvironment(seed uint64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Seed:       seed,
	}
}

// procField returns the value of the first "key : value" or
// "key:\tvalue" line of a /proc file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc does not provide it.
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM")) // "123456 kB"
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
