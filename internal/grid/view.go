package grid

// View is the rank-generic layout of a dense double-buffered grid:
// extents, halos, strides, the two time-parity buffers and the step
// count, so one executor body serves Grid1D, Grid2D and Grid3D.
// Dimension 0 is outermost and dimension D-1 unit-stride; entries past
// D hold extent 1, halo 0 and stride 0, so they add nothing to an
// index. Buf and Step point into the grid, so a run that advances
// *Step is seen by the grid.
type View struct {
	D    int
	N    [3]int // interior extents
	H    [3]int // halo widths
	S    [3]int // strides in cells
	Buf  *[2][]float64
	Step *int
}

// View returns g's layout.
func (g *Grid1D) View() View {
	return View{D: 1, N: [3]int{g.N, 1, 1}, H: [3]int{g.H}, S: [3]int{1}, Buf: &g.Buf, Step: &g.Step}
}

// View returns g's layout.
func (g *Grid2D) View() View {
	return View{D: 2, N: [3]int{g.NX, g.NY, 1}, H: [3]int{g.HX, g.HY}, S: [3]int{g.SY, 1}, Buf: &g.Buf, Step: &g.Step}
}

// View returns g's layout.
func (g *Grid3D) View() View {
	return View{D: 3, N: [3]int{g.NX, g.NY, g.NZ}, H: [3]int{g.HX, g.HY, g.HZ}, S: [3]int{g.SX, g.SY, 1}, Buf: &g.Buf, Step: &g.Step}
}

// Extents returns a new slice of the D interior extents.
func (v View) Extents() []int { return append([]int(nil), v.N[:v.D]...) }

// Src returns the buffer step t of a run reads, counting t from the
// grid's current Step: the one holding time step *Step+t.
func (v View) Src(t int) []float64 { return v.Buf[(*v.Step+t)&1] }

// Dst returns the buffer step t of a run writes, counting as Src does.
func (v View) Dst(t int) []float64 { return v.Buf[(*v.Step+t+1)&1] }

// Box returns the flat index of interior point lo and the extents of
// the box [lo, hi): the corner and shape a whole-box kernel takes.
func (v View) Box(lo, hi [3]int) (base int, n [3]int) {
	for k := range lo {
		base += (lo[k] + v.H[k]) * v.S[k]
		n[k] = hi[k] - lo[k]
	}
	return base, n
}
