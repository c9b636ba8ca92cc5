package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"tessellate/internal/cpu"
	"tessellate/internal/stencil"
)

// hostContext records what a reader needs to attribute the numbers:
// CPU model and vector features, core and thread counts, cache sizes,
// the kernel tier the dispatcher resolves, the Go toolchain, and a
// digest of the sources the binary was built from (the checkout the
// benchmark runs in need not be a git repository, so the digest stands
// in for the commit).
func hostContext() map[string]any {
	return map[string]any{
		"cpu_model":   cpuModel(),
		"cpu_flags":   cpu.Features(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"l2":          cacheSize(2),
		"l3":          cacheSize(3),
		"kernel_tier": stencil.ActivePath().String(),
		"go_version":  runtime.Version(),
		"commit":      "src-sha256:" + sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified cache at the given level
// ("unknown" where sysfs does not say).
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != string(rune('0'+level)) {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root outside
// build output, in walk order, returning the first 16 hex digits.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, p)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB is the process's high-water resident set (VmHWM, which
// Linux reports as ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
