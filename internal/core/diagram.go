package core

import (
	"fmt"
	"strings"
)

// Diagram1D renders the space-time diagram of a 1D tessellation
// schedule as ASCII art, in the spirit of the paper's Figure 1: one row
// per time step (time flowing upward), one column per grid point, each
// cell labelled with the block that updates it. Diamond (merged
// B_d+B_0) blocks print as letters, odd-phase blocks as upper case and
// even-phase as lower case, so the interleaved triangles of the two
// lattices are visible.
func Diagram1D(cfg *Config, steps int) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	if cfg.Dims() != 1 {
		return "", fmt.Errorf("core: Diagram1D needs a 1D config, got %dD", cfg.Dims())
	}
	n := cfg.N[0]
	rows := make([][]byte, steps)
	for t := range rows {
		rows[t] = []byte(strings.Repeat(".", n))
	}
	lo := make([]int, 1)
	hi := make([]int, 1)
	for _, r := range cfg.Regions(steps) {
		for bi := range r.Blocks {
			b := &r.Blocks[bi]
			glyph := glyphFor(r.Diamond, r.Ref/cfg.BT, bi)
			for t := r.T0; t < r.T1; t++ {
				if !cfg.ClippedBounds(&r, b, t, lo, hi) {
					continue
				}
				for x := lo[0]; x < hi[0]; x++ {
					rows[t][wrap(x, n)] = glyph
				}
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "t↑  (N=%d, BT=%d, Big=%d, Small=%d; '.' = never updated)\n", n, cfg.BT, cfg.Big[0], cfg.Small(0))
	for t := steps - 1; t >= 0; t-- {
		fmt.Fprintf(&sb, "%3d %s\n", t, rows[t])
	}
	return sb.String(), nil
}

// glyphFor picks a letter per block, case by phase parity.
func glyphFor(diamond bool, phase, bi int) byte {
	alphabet := "abcdefghijklmnopqrstuvwxyz"
	c := alphabet[bi%len(alphabet)]
	if !diamond {
		// Middle-stage blocks (only exist when d > 1) — not used in 1D
		// merged schedules but kept for completeness.
		c = alphabet[(bi+13)%len(alphabet)]
	}
	if phase&1 == 1 {
		return c - 'a' + 'A'
	}
	return c
}
