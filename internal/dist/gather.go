package dist

// GatherTo collects every rank's territory at rank root over the
// transport, so no shared memory is needed (the real-cluster path; the
// in-process tests use Territory directly). All ranks must call
// GatherTo with the same root; on the root, dst (a *grid.Grid2D or
// *grid.Grid3D of the config's extents) receives the full field and
// the call returns after all territories arrive. On other ranks dst is
// ignored (may be nil). A territory travels as the interior rows of
// its planes.
func (r *Rank) GatherTo(root int, dst any) error {
	if r.ID != root {
		w := wire(r.local, r.part.Width())
		buf := make([]float64, r.part.Width()*planeLen(r.local))
		copyPlanes(buf, w, 0, r.local.Src(0), r.local, r.part.X0, r.part.Width(), [3]int{})
		return r.tr.Send(root, buf)
	}
	dv, err := r.globalView(dst)
	if err != nil {
		return err
	}
	*dv.Step = *r.local.Step
	if err := r.Territory(dst); err != nil {
		return err
	}
	parts, err := Slabs(r.cfg.N[0], r.NRanks, r.h)
	if err != nil {
		return err
	}
	for peer := 0; peer < r.NRanks; peer++ {
		if peer == root {
			continue
		}
		p := parts[peer]
		w := wire(r.local, p.Width())
		buf := make([]float64, p.Width()*planeLen(r.local))
		if err := r.tr.Recv(peer, buf); err != nil {
			return err
		}
		copyPlanes(dv.Src(0), dv, p.X0, buf, w, 0, p.Width(), [3]int{})
	}
	return nil
}
