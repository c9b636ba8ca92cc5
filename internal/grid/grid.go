// Package grid provides the double-buffered dense grids that every
// stencil scheme in this repository operates on.
//
// A Jacobi stencil of temporal extent T needs the values of time step t
// to compute time step t+1, and any correct tiling scheme guarantees
// that no point is ever more than one step ahead of a neighbour
// (|t(a') - t(a)| <= 1, the paper's correctness condition). Two buffers
// indexed by time parity are therefore sufficient for every schedule,
// and all schemes here use exactly that representation, so their
// outputs can be compared bitwise.
//
// Grids carry a halo ("ghost" region) of width equal to the stencil
// slope in each dimension. For the non-periodic (constant/Dirichlet)
// boundary condition evaluated in the paper, the halo holds boundary
// values that are never updated.
package grid

import "fmt"

// Grid1D is a double-buffered 1D grid of N interior points with a halo
// of H cells on each side. Buffer layout: index x in [0, N) lives at
// flat position x+H.
type Grid1D struct {
	N    int
	H    int
	Buf  [2][]float64
	Step int // number of completed time steps (parity selects the buffer)
}

// NewGrid1D allocates a 1D grid. It panics if n <= 0 or h < 0, because
// a grid of non-positive extent indicates a programming error at the
// call site, not a recoverable condition.
func NewGrid1D(n, h int) *Grid1D {
	if n <= 0 || h < 0 {
		panic(fmt.Sprintf("grid: invalid Grid1D size n=%d h=%d", n, h))
	}
	g := &Grid1D{N: n, H: h}
	g.Buf[0] = make([]float64, n+2*h)
	g.Buf[1] = make([]float64, n+2*h)
	return g
}

// Src returns the buffer holding time step "Step" values.
func (g *Grid1D) Src() []float64 { return g.Buf[g.Step&1] }

// At returns the current value of interior point x.
func (g *Grid1D) At(x int) float64 { return g.Buf[g.Step&1][x+g.H] }

// Set writes v into interior point x in both buffers; used for initial
// conditions so that halo-adjacent reads at t=0 and t=1 agree.
func (g *Grid1D) Set(x int, v float64) {
	g.Buf[0][x+g.H] = v
	g.Buf[1][x+g.H] = v
}

// SetBoundary writes v into every halo cell of both buffers.
func (g *Grid1D) SetBoundary(v float64) {
	for _, b := range &g.Buf {
		for i := 0; i < g.H; i++ {
			b[i] = v
			b[len(b)-1-i] = v
		}
	}
}

// Fill sets every interior point to f(x) in both buffers.
func (g *Grid1D) Fill(f func(x int) float64) {
	for x := 0; x < g.N; x++ {
		g.Set(x, f(x))
	}
}

// Clone returns a deep copy.
func (g *Grid1D) Clone() *Grid1D {
	c := NewGrid1D(g.N, g.H)
	copy(c.Buf[0], g.Buf[0])
	copy(c.Buf[1], g.Buf[1])
	c.Step = g.Step
	return c
}

// Grid2D is a double-buffered 2D grid of NX x NY interior points with
// halos HX, HY. Row-major: the unit-stride dimension is y, matching the
// paper's loop nests (x outer, y inner). Point (x, y) lives at flat
// position (x+HX)*SY + (y+HY). SY is at least NY + 2*HY and may exceed
// it (see rowStride): the cells past a row's halo are padding that no
// run reads or writes, and they stay zero in freshly allocated grids.
type Grid2D struct {
	NX, NY int
	HX, HY int
	SY     int // row stride
	Buf    [2][]float64
	Step   int
}

// NewGrid2D allocates a 2D grid; panics on non-positive sizes.
func NewGrid2D(nx, ny, hx, hy int) *Grid2D {
	g, total := layout2D(nx, ny, hx, hy)
	g.Buf[0] = make([]float64, total)
	g.Buf[1] = make([]float64, total)
	return g
}

// layout2D checks a 2D shape and returns its buffer-less grid header
// and buffer length; every 2D constructor shares it, so all of them
// agree on the layout.
func layout2D(nx, ny, hx, hy int) (*Grid2D, int) {
	if nx <= 0 || ny <= 0 || hx < 0 || hy < 0 {
		panic(fmt.Sprintf("grid: invalid Grid2D size nx=%d ny=%d hx=%d hy=%d", nx, ny, hx, hy))
	}
	g := &Grid2D{NX: nx, NY: ny, HX: hx, HY: hy, SY: rowStride(ny + 2*hy)}
	return g, (nx + 2*hx) * g.SY
}

// Row-stride padding: a stride that starts one of the next aliasRows
// rows within aliasBytes of a non-zero multiple of pageBytes maps a
// tile's rows onto the same few L1 sets, so a kernel sweeping a tile
// of consecutive rows evicts its own neighbours: on a 2-vCPU Xeon a
// hot 64x44 heat-2d box costs the simd kernel 1.05 ns/pt at stride
// 1028 and 0.60 ns/pt at stride 1040 (DESIGN.md §3, grid layout).
const (
	pageBytes  = 4096
	aliasBytes = 128
	aliasRows  = 4
)

// rowStride returns the 2D row stride, in cells, for rows of w cells
// (interior plus halos): the first stride from w up whose next
// aliasRows row starts all stay at least aliasBytes away from every
// non-zero multiple of pageBytes (258 becomes 264, 1028 becomes
// 1040). Rows so short that four of them stay clear of the first
// page boundary keep the dense stride.
func rowStride(w int) int {
	sy := w
	for aliases(sy) {
		sy++
	}
	return sy
}

// aliases reports whether one of the next aliasRows rows at stride sy
// starts within aliasBytes of a non-zero multiple of pageBytes.
func aliases(sy int) bool {
	for j := 1; j <= aliasRows; j++ {
		b := 8 * sy * j
		off := b % pageBytes
		if (off < aliasBytes && b >= pageBytes) || pageBytes-off < aliasBytes {
			return true
		}
	}
	return false
}

// Idx returns the flat index of interior point (x, y).
func (g *Grid2D) Idx(x, y int) int { return (x+g.HX)*g.SY + (y + g.HY) }

// At returns the current value of interior point (x, y).
func (g *Grid2D) At(x, y int) float64 { return g.Buf[g.Step&1][g.Idx(x, y)] }

// Set writes v into interior point (x, y) in both buffers.
func (g *Grid2D) Set(x, y int, v float64) {
	i := g.Idx(x, y)
	g.Buf[0][i] = v
	g.Buf[1][i] = v
}

// SetBoundary writes v into every halo cell of both buffers.
func (g *Grid2D) SetBoundary(v float64) {
	for x := -g.HX; x < g.NX+g.HX; x++ {
		for y := -g.HY; y < g.NY+g.HY; y++ {
			if x >= 0 && x < g.NX && y >= 0 && y < g.NY {
				continue
			}
			i := g.Idx(x, y)
			g.Buf[0][i] = v
			g.Buf[1][i] = v
		}
	}
}

// Fill sets every interior point to f(x, y) in both buffers.
func (g *Grid2D) Fill(f func(x, y int) float64) {
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			g.Set(x, y, f(x, y))
		}
	}
}

// Clone returns a deep copy.
func (g *Grid2D) Clone() *Grid2D {
	c := NewGrid2D(g.NX, g.NY, g.HX, g.HY)
	copy(c.Buf[0], g.Buf[0])
	copy(c.Buf[1], g.Buf[1])
	c.Step = g.Step
	return c
}

// Grid3D is a double-buffered 3D grid of NX x NY x NZ interior points.
// Layout: z is unit-stride; point (x, y, z) lives at
// (x+HX)*SX + (y+HY)*SY + (z+HZ), with SY = NZ+2*HZ and
// SX = (NY+2*HY)*SY. Unlike Grid2D, rows are never padded: padding
// them measured slower on heat-3d, where each region's cold first
// step got slower (DESIGN.md §3).
type Grid3D struct {
	NX, NY, NZ int
	HX, HY, HZ int
	SX, SY     int
	Buf        [2][]float64
	Step       int
}

// NewGrid3D allocates a 3D grid; panics on non-positive sizes.
func NewGrid3D(nx, ny, nz, hx, hy, hz int) *Grid3D {
	g, total := layout3D(nx, ny, nz, hx, hy, hz)
	g.Buf[0] = make([]float64, total)
	g.Buf[1] = make([]float64, total)
	return g
}

// layout3D is layout2D for 3D grids.
func layout3D(nx, ny, nz, hx, hy, hz int) (*Grid3D, int) {
	if nx <= 0 || ny <= 0 || nz <= 0 || hx < 0 || hy < 0 || hz < 0 {
		panic(fmt.Sprintf("grid: invalid Grid3D size %dx%dx%d halo %d,%d,%d", nx, ny, nz, hx, hy, hz))
	}
	g := &Grid3D{NX: nx, NY: ny, NZ: nz, HX: hx, HY: hy, HZ: hz}
	g.SY = nz + 2*hz
	g.SX = (ny + 2*hy) * g.SY
	return g, (nx + 2*hx) * g.SX
}

// Idx returns the flat index of interior point (x, y, z).
func (g *Grid3D) Idx(x, y, z int) int {
	return (x+g.HX)*g.SX + (y+g.HY)*g.SY + (z + g.HZ)
}

// At returns the current value of interior point (x, y, z).
func (g *Grid3D) At(x, y, z int) float64 { return g.Buf[g.Step&1][g.Idx(x, y, z)] }

// Set writes v into interior point (x, y, z) in both buffers.
func (g *Grid3D) Set(x, y, z int, v float64) {
	i := g.Idx(x, y, z)
	g.Buf[0][i] = v
	g.Buf[1][i] = v
}

// SetBoundary writes v into every halo cell of both buffers.
func (g *Grid3D) SetBoundary(v float64) {
	for x := -g.HX; x < g.NX+g.HX; x++ {
		for y := -g.HY; y < g.NY+g.HY; y++ {
			for z := -g.HZ; z < g.NZ+g.HZ; z++ {
				if x >= 0 && x < g.NX && y >= 0 && y < g.NY && z >= 0 && z < g.NZ {
					continue
				}
				i := g.Idx(x, y, z)
				g.Buf[0][i] = v
				g.Buf[1][i] = v
			}
		}
	}
}

// Fill sets every interior point to f(x, y, z) in both buffers.
func (g *Grid3D) Fill(f func(x, y, z int) float64) {
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			for z := 0; z < g.NZ; z++ {
				g.Set(x, y, z, f(x, y, z))
			}
		}
	}
}

// Clone returns a deep copy.
func (g *Grid3D) Clone() *Grid3D {
	c := NewGrid3D(g.NX, g.NY, g.NZ, g.HX, g.HY, g.HZ)
	copy(c.Buf[0], g.Buf[0])
	copy(c.Buf[1], g.Buf[1])
	c.Step = g.Step
	return c
}
