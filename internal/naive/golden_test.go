package naive

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// The golden table pins the oracle's output bit for bit. Each case
// seeds every cell of both parity buffers (halos included) from a
// fixed source, runs the oracle, and hashes both buffers and Step, so
// a rewrite that writes a halo, the wrong parity or an inactive point,
// or that reorders any kernel's arithmetic, changes the hash. Each
// case runs serially and on a pool of three workers; both must match.
// The hashes were recorded on amd64, where the Go compiler fuses no
// multiply-add, so every kernel tier (row, block, simd, purego) gives
// them; other architectures may fuse and round differently.

// goldenCase is one oracle run: the plain stencil spec (s) or the
// pipeline p on a grid of extents n, masked by the named mask (""
// for none), for steps steps from Step step0.
type goldenCase struct {
	name  string
	s     *stencil.Spec
	p     *stencil.Pipeline
	n     []int
	mask  string
	step0 int
	steps int
}

// goldenExtents gives each rank small, odd, unequal extents, so serial
// boxes, per-plane splits and per-worker chunks all differ.
var goldenExtents = [][]int{{37}, {13, 17}, {7, 9, 11}}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, s := range stencil.All {
		for _, m := range []string{"", "lshape", "obstacle", "striped"} {
			cs = append(cs, goldenCase{name: s.Name + "/" + m, s: s, n: goldenExtents[s.Dims-1], mask: m, steps: 5})
		}
	}
	for _, s := range []*stencil.Spec{stencil.Heat1D, stencil.Heat2D, stencil.Heat3D} {
		for _, p := range []*stencil.Pipeline{goldenRK2(s), goldenLeapfrog(s), goldenReread(s)} {
			for _, m := range []string{"", "lshape"} {
				cs = append(cs, goldenCase{name: p.Name + "/" + m, p: p, n: goldenExtents[s.Dims-1], mask: m, steps: 4})
			}
		}
	}
	cs = append(cs,
		goldenCase{name: "heat-2d/odd-step", s: stencil.Heat2D, n: goldenExtents[1], step0: 1, steps: 4},
		goldenCase{name: "leapfrog-heat-3d/obstacle/odd-step", p: goldenLeapfrog(stencil.Heat3D), n: goldenExtents[2], mask: "obstacle", step0: 3, steps: 3},
	)
	return cs
}

// golden maps each case to its hash, recorded from the per-rank oracle
// entries (Run1D/2D/3D, RunMasked1D/2D/3D and RunPipeline1D/2D/3D)
// that Run replaced.
var golden = map[string]uint64{
	"heat-1d/":                           0xc4eda41323b0328a,
	"heat-1d/lshape":                     0x4e3ad97e41c0743f,
	"heat-1d/obstacle":                   0x62b328abfe3f17b6,
	"heat-1d/striped":                    0xcfb6a3822d7d5008,
	"1d5p/":                              0x3c92be870c3d5689,
	"1d5p/lshape":                        0x75795fd130613ba6,
	"1d5p/obstacle":                      0xd8a0c99999d90bde,
	"1d5p/striped":                       0x51abb43f3cd3d57f,
	"heat-2d/":                           0xb0ae89efa33b2711,
	"heat-2d/lshape":                     0x786fe12a21f32bbf,
	"heat-2d/obstacle":                   0x15709dbc42acc443,
	"heat-2d/striped":                    0xadf3320018d87c68,
	"2d9p/":                              0x2de8d84fd33ab2d4,
	"2d9p/lshape":                        0x522b3abad365c39,
	"2d9p/obstacle":                      0x826b02a352abd09c,
	"2d9p/striped":                       0x75ca8e2870928031,
	"game-of-life/":                      0x7870a535abcfab7c,
	"game-of-life/lshape":                0xa99c31e26152f769,
	"game-of-life/obstacle":              0xf450a5da72a28a6f,
	"game-of-life/striped":               0x52139d858de8bf43,
	"heat-3d/":                           0xb72ad28c6074e11d,
	"heat-3d/lshape":                     0x8b73411a7def614f,
	"heat-3d/obstacle":                   0x727bf5d241442a10,
	"heat-3d/striped":                    0xb69774eb6e6c1d15,
	"3d27p/":                             0x8fc59efc65b60db0,
	"3d27p/lshape":                       0xfbfb9c42cc537952,
	"3d27p/obstacle":                     0xa3b45bce6cd05992,
	"3d27p/striped":                      0x54072a682476a260,
	"rk2-heat-1d/":                       0x7db77baa9ddd6662,
	"rk2-heat-1d/lshape":                 0xc002e512fc6a75d8,
	"leapfrog-heat-1d/":                  0xef6316697795d9cb,
	"leapfrog-heat-1d/lshape":            0x8728ef34b78478d4,
	"reread-heat-1d/":                    0xdc4f3532ee25ee40,
	"reread-heat-1d/lshape":              0x55f8d2fa2434822c,
	"rk2-heat-2d/":                       0xe0807523c90c109f,
	"rk2-heat-2d/lshape":                 0x3c8c237b56242d0f,
	"leapfrog-heat-2d/":                  0x1f8743dd2bce32c6,
	"leapfrog-heat-2d/lshape":            0xe40986cd9ed65810,
	"reread-heat-2d/":                    0xc9c873e976251e9c,
	"reread-heat-2d/lshape":              0xf9bfa9f6b1b2e2e6,
	"rk2-heat-3d/":                       0x384758acc59a97ca,
	"rk2-heat-3d/lshape":                 0xa5c8aeacc1d40209,
	"leapfrog-heat-3d/":                  0xecec45f8dc8c74c2,
	"leapfrog-heat-3d/lshape":            0x89ea51d7f6dcd62d,
	"reread-heat-3d/":                    0x63617c33587aee64,
	"reread-heat-3d/lshape":              0x24777b2c1ff670bd,
	"heat-2d/odd-step":                   0x964b6aa97cf8b5b6,
	"leapfrog-heat-3d/obstacle/odd-step": 0xdc66597e8a488579,
}

func TestGoldenOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	pool := par.NewPool(3)
	defer pool.Close()
	for _, c := range goldenCases() {
		var got [2]uint64
		for i, pl := range []*par.Pool{nil, pool} {
			h, err := runGolden(c, pl)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got[i] = h
		}
		if got[0] != got[1] {
			t.Errorf("%s: serial %#x, parallel %#x", c.name, got[0], got[1])
		}
		if want := golden[c.name]; got[0] != want {
			t.Errorf("%q: %#x, // want %#x", c.name, got[0], want)
		}
	}
}

// runGolden seeds the case's grid, runs the oracle on pool and returns
// the hash of both buffers and Step.
func runGolden(c goldenCase, pool *par.Pool) (uint64, error) {
	p := c.p
	if p == nil {
		p = stencil.OneStage(c.s)
	}
	sl := p.Slopes()
	var m *grid.Mask
	if c.mask != "" {
		m = goldenMask(c.mask, c.n)
	}
	var src int64
	for _, r := range c.name {
		src = src*31 + int64(r)
	}
	rng := rand.New(rand.NewSource(src))
	var v grid.View
	switch len(c.n) {
	case 1:
		v = grid.NewGrid1D(c.n[0], sl[0]).View()
	case 2:
		v = grid.NewGrid2D(c.n[0], c.n[1], sl[0], sl[1]).View()
	case 3:
		v = grid.NewGrid3D(c.n[0], c.n[1], c.n[2], sl[0], sl[1], sl[2]).View()
	}
	buf, step := v.Buf, v.Step
	for b := range buf {
		for i := range buf[b] {
			buf[b][i] = rng.Float64()
		}
	}
	*step = c.step0
	if err := Run(v, p, c.steps, pool, m); err != nil {
		return 0, err
	}
	if *step != c.step0+c.steps {
		return 0, fmt.Errorf("step %d after %d steps from %d", *step, c.steps, c.step0)
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for b := range buf {
		for _, v := range buf[b] {
			mix(math.Float64bits(v))
		}
	}
	mix(uint64(*step))
	return h, nil
}

// goldenMask returns the named mask, or "striped": bands of three
// identical rows along the second-to-last dimension, each cutting every
// fourth unit-stride cell at the band's offset, every third band fully
// active (in 1D, one band).
func goldenMask(name string, n []int) *grid.Mask {
	if name != "striped" {
		m, err := grid.NamedMask(name, n)
		if err != nil {
			panic(err)
		}
		return m
	}
	m := grid.NewMask(n)
	p := make([]int, len(n))
	var carve func(k int)
	carve = func(k int) {
		if k < len(n) {
			for p[k] = 0; p[k] < n[k]; p[k]++ {
				carve(k + 1)
			}
			return
		}
		band := 0
		if d := len(p); d > 1 {
			band = p[d-2] / 3
		}
		if band%3 != 2 && (p[len(p)-1]+band)%4 == 0 {
			m.Set(false, p...)
		}
	}
	carve(0)
	m.Finalize()
	return m
}

// goldenRK2 is SSP-RK2: two stencil stages and a ½/½ blend.
func goldenRK2(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{Name: "rk2-" + s.Name, TmpHalo: 0.25, Stages: []stencil.Stage{
		{Spec: s, In: 0},
		{Spec: s, In: 1},
		{A: 0.5, In: 0, B: 0.5, InB: 2},
	}}
}

// goldenLeapfrog reads the previous state: u' = 2*E(u) - u_prev.
func goldenLeapfrog(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{Name: "leapfrog-" + s.Name, TmpHalo: 0.5, Stages: []stencil.Stage{
		{Spec: s, In: 0},
		{A: 2, In: 1, B: -1, InB: stencil.PrevState},
	}}
}

// goldenReread feeds a stencil output both to a blend and to a later
// stencil.
func goldenReread(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{Name: "reread-" + s.Name, TmpHalo: 0.4, Stages: []stencil.Stage{
		{Spec: s, In: 0},
		{A: 0.5, In: 1, B: 0.5, InB: 0},
		{Spec: s, In: 1},
		{A: 0.25, In: 3, B: 0.75, InB: 2},
	}}
}
