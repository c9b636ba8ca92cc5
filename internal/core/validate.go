package core

import "fmt"

// ValidateSchedule executes the schedule produced by cfg.Regions(steps)
// on an integer "update count" grid and checks that it is a correct
// Jacobi schedule under any intra-region interleaving:
//
//  1. Exactly-once coverage: every interior point is updated exactly
//     once per time step (Theorem 3.5 — the extended blocks tessellate
//     the iteration space), and blocks of one region never overlap.
//  2. Serial dependence: whenever a point advances from t to t+1, every
//     dependence-box neighbour holds a usable value of time t, i.e. its
//     count is in {t, t+1} (the paper's correctness condition plus the
//     two-buffer liveness constraint).
//  3. Concurrency safety: if the neighbour is written by a *different*
//     block of the same region, the condition must hold regardless of
//     interleaving: its count entering the region must already be >= t
//     and its count leaving the region must be <= t+1.
//
// Points outside the domain are constant (non-periodic boundary) and
// always satisfy the dependence; on a periodic config every point and
// neighbour wraps mod N instead. ValidateSchedule is exhaustive and
// meant for tests; it returns the first violation found.
func ValidateSchedule(cfg *Config, steps int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	d := cfg.Dims()
	total := 1
	for _, n := range cfg.N {
		total *= n
	}
	strides := make([]int, d)
	for k := d - 1; k >= 0; k-- {
		if k == d-1 {
			strides[k] = 1
		} else {
			strides[k] = strides[k+1] * cfg.N[k+1]
		}
	}

	cnt := make([]int, total)
	before := make([]int, total)
	after := make([]int, total)
	owner := make([]int32, total)
	ownerVer := make([]int32, total)
	for i := range ownerVer {
		ownerVer[i] = -1
	}

	// Neighbour offsets: the full dependence box (conservative for star
	// stencils, exact for box stencils).
	var offsets [][]int
	off := make([]int, d)
	var gen func(k int)
	gen = func(k int) {
		if k == d {
			offsets = append(offsets, append([]int(nil), off...))
			return
		}
		for v := -cfg.Slopes[k]; v <= cfg.Slopes[k]; v++ {
			off[k] = v
			gen(k + 1)
		}
		off[k] = 0
	}
	gen(0)

	lo := make([]int, d)
	hi := make([]int, d)
	p := make([]int, d)
	q := make([]int, d)
	// at returns the flat index of p, wrapped mod N on a periodic
	// config; ok is false for a point of the constant boundary halo.
	at := func(p []int) (i int, ok bool) {
		for k, v := range p {
			if cfg.Periodic {
				v = wrap(v, cfg.N[k])
			} else if v < 0 || v >= cfg.N[k] {
				return 0, false
			}
			i += v * strides[k]
		}
		return i, true
	}

	regions := cfg.Regions(steps)
	for ri, r := range regions {
		ver := int32(ri)
		copy(before, cnt)

		// Pass 1: apply all writes, checking exactly-once coverage and
		// per-region block disjointness.
		for bi := range r.Blocks {
			b := &r.Blocks[bi]
			for t := r.T0; t < r.T1; t++ {
				if !cfg.ClippedBounds(&r, b, t, lo, hi) {
					continue
				}
				err := forBox(lo, hi, p, func() error {
					i, _ := at(p)
					if cnt[i] != t {
						return fmt.Errorf("region %d block %d: point %v updated to %d but has count %d", ri, bi, p, t+1, cnt[i])
					}
					cnt[i]++
					if ownerVer[i] == ver && owner[i] != int32(bi) {
						return fmt.Errorf("region %d: point %v written by blocks %d and %d", ri, p, owner[i], bi)
					}
					owner[i] = int32(bi)
					ownerVer[i] = ver
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
		copy(after, cnt)
		copy(cnt, before)

		// Pass 2: replay, checking every dependence-box read.
		for bi := range r.Blocks {
			b := &r.Blocks[bi]
			for t := r.T0; t < r.T1; t++ {
				if !cfg.ClippedBounds(&r, b, t, lo, hi) {
					continue
				}
				err := forBox(lo, hi, p, func() error {
					for _, o := range offsets {
						for k := 0; k < d; k++ {
							q[k] = p[k] + o[k]
						}
						j, inside := at(q)
						if !inside {
							continue // constant boundary halo
						}
						if ownerVer[j] == ver && owner[j] != int32(bi) {
							// Cross-block read within one region: must be
							// safe under any interleaving.
							if before[j] < t || after[j] > t+1 {
								return fmt.Errorf("region %d block %d t=%d: unsafe concurrent read of %v (count before=%d after=%d, need [%d,%d])",
									ri, bi, t, q, before[j], after[j], t, t+1)
							}
						} else if cnt[j] < t || cnt[j] > t+1 {
							return fmt.Errorf("region %d block %d t=%d: point %v reads neighbour %v with count %d (need %d or %d)",
								ri, bi, t, p, q, cnt[j], t, t+1)
						}
					}
					i, _ := at(p)
					cnt[i]++
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
	}

	for i := range cnt {
		if cnt[i] != steps {
			unflat(i, strides, p, cfg.N)
			return fmt.Errorf("point %v finished with count %d, want %d", p, cnt[i], steps)
		}
	}
	return nil
}

func unflat(i int, strides, p, n []int) {
	for k := range p {
		p[k] = (i / strides[k]) % n[k]
	}
}

// forBox iterates f over the half-open box [lo, hi), writing the
// current coordinates into p.
func forBox(lo, hi, p []int, f func() error) error {
	copy(p, lo)
	for {
		if err := f(); err != nil {
			return err
		}
		if !nextPoint(p, lo, hi) {
			return nil
		}
	}
}
