package core

import (
	"fmt"

	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// The global dispatch ceiling (stencil.Path) lives in
// stencil.ActivePath so the baseline schemes can share it: executors
// route each clipped box to the highest path at or below it that the
// spec (and platform) supports. One atomic holds it; every run samples
// it exactly once at run start, so a concurrent SetKernelPath never
// mixes paths within a run — schedule replays on the serving path pick
// the new path up atomically at their next run.
//
// Defaults to simd (degrading per spec/platform); the TESS_KERNEL_PATH
// environment variable ("row", "block", "simd") overrides the default
// at init, which is how CI forces a whole test run onto one path.

// SetKernelPath selects the kernel dispatch path: "row" (per-row
// calls, the oracle), "block" (fused scalar block kernels), or "simd"
// (4-lane float64 vector kernels where available). The setting is a
// ceiling — specs without the requested tier degrade to the next one
// down, and requesting simd on a platform without vector support
// degrades to block silently, recording
// tess_kernel_simd_fallbacks_total. Safe to call concurrently with
// runs: each run captures the path once at run start.
func SetKernelPath(name string) error {
	p, ok := stencil.ParsePath(name)
	if !ok {
		return fmt.Errorf("core: unknown kernel path %q (valid: row, block, simd)", name)
	}
	if p == stencil.PathSIMD && !stencil.SIMDAvailable() {
		telemetry.KernelSIMDFallbacks.Add(1)
	}
	stencil.SetActivePath(p)
	return nil
}

// KernelPath returns the name of the currently selected dispatch path.
func KernelPath() string { return ActivePath().String() }

// ActivePath returns the selected dispatch ceiling. Baseline schemes
// (naive, skew, diamond) sample it once at run start and resolve their
// kernels through stencil.Spec.Resolve*, so cross-scheme benchmarks
// compare like with like.
func ActivePath() stencil.Path { return stencil.ActivePath() }

// runPath samples the dispatch path for one run, degrading a simd
// request to block when the platform has no vector kernels (counted in
// tess_kernel_simd_fallbacks_total). Executors call it exactly once
// per run, at entry.
func runPath() stencil.Path {
	p := stencil.ActivePath()
	if p == stencil.PathSIMD && !stencil.SIMDAvailable() {
		telemetry.KernelSIMDFallbacks.Add(1)
		return stencil.PathBlock
	}
	return p
}

// BlockKernelsEnabled reports whether executors dispatch whole clipped
// boxes to fused kernels (block or simd) when a spec carries one.
func BlockKernelsEnabled() bool { return ActivePath() >= stencil.PathBlock }
