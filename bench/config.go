package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// runInfo is config.json: what a set of numbers was measured on. Without
// it two runs directories cannot be compared.
type runInfo struct {
	Commit     string         `json:"git_commit"`
	Dirty      bool           `json:"git_dirty"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Kernel     string         `json:"kernel"`
	WorkFS     string         `json:"work_fs"`
	Seed       int64          `json:"seed"`
	Reps       int            `json:"reps"`
	Seconds    float64        `json:"seconds"`
	WarmS      float64        `json:"warm_seconds"`
	Episodes   int            `json:"episodes_per_rep"`
	Quick      bool           `json:"quick"`
	Traced     bool           `json:"traced"`
	Clients    map[string]int `json:"clients"`
	Note       string         `json:"note"`
}

const runNote = "Both sites and the load generator share one process. Latencies are TCP loopback's and this disk's fsync, not a link's or a device's; compare only runs whose config matches."

func newRunInfo(cfg runConfig, reps int, traced bool, workFS string) runInfo {
	info := runInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     kernelRelease(),
		WorkFS:     workFS,
		Seed:       cfg.seed,
		Reps:       reps,
		Seconds:    cfg.seconds,
		WarmS:      cfg.warm,
		Episodes:   cfg.episodes,
		Quick:      cfg.quick,
		Traced:     traced,
		Clients:    map[string]int{},
		Note:       runNote,
	}
	for _, sp := range specs {
		info.Clients[sp.name] = sp.clients
	}
	// The driver's checkouts are not git repositories; the fields then
	// stay empty rather than failing the run.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		info.Commit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "status", "--porcelain").Output()
		info.Dirty = len(st) > 0
	}
	return info
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// checkProcs refuses to measure with fewer Ps than CPUs (or more): both
// sites and the generator share the process, and every recorded number
// assumes GOMAXPROCS = nproc.
func checkProcs() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p != n {
		return fmt.Errorf("GOMAXPROCS=%d but nproc=%d: unset GOMAXPROCS, the recorded numbers assume they are equal", p, n)
	}
	return nil
}

// fsTypeOf names the filesystem holding dir.
func fsTypeOf(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0x858458f6:
		return "ramfs", nil
	case 0xef53:
		return "ext", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683e:
		return "btrfs", nil
	case 0x794c7630:
		return "overlayfs", nil
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type)), nil
	}
}
