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
		w := r.local.wire(r.part.Width())
		buf := make([]float64, r.part.Width()*r.local.planeLen())
		copyPlanes(buf, &w, 0, r.local.cur(), &r.local, r.part.X0-r.xbase, r.part.Width(), [2]int{})
		return r.tr.Send(root, buf)
	}
	ds, err := r.globalSlab(dst)
	if err != nil {
		return err
	}
	*ds.Step = *r.local.Step
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
		w := r.local.wire(p.Width())
		buf := make([]float64, p.Width()*r.local.planeLen())
		if err := r.tr.Recv(peer, buf); err != nil {
			return err
		}
		copyPlanes(ds.cur(), &ds, p.X0, buf, &w, 0, p.Width(), [2]int{})
	}
	return nil
}
