package dist

import (
	"math/rand"
	"sync"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// GatherTo over the transport must agree with shared-memory Territory
// collection and with the single-process reference.
func TestGatherOverTransport(t *testing.T) {
	const nranks = 3
	nx, ny := 90, 28
	cfg := testConfig(nx, ny)
	initial := grid.NewGrid2D(nx, ny, 1, 1)
	rng := rand.New(rand.NewSource(55))
	initial.Fill(func(x, y int) float64 { return rng.Float64() })

	ref := initial.Clone()
	naive.Run(ref.View(), stencil.OneStage(stencil.Heat2D), 8, nil, nil)

	ts := LocalCluster(nranks)
	ranks := make([]*Rank, nranks)
	for i := 0; i < nranks; i++ {
		r, err := NewRank(i, nranks, ts[i], cfg, stencil.Heat2D, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	gathered := grid.NewGrid2D(nx, ny, 1, 1)
	var wg sync.WaitGroup
	errs := make([]error, nranks)
	for i := range ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ranks[i].Run(8); err != nil {
				errs[i] = err
				return
			}
			var dst *grid.Grid2D
			if i == 0 {
				dst = gathered
			}
			errs[i] = ranks[i].GatherTo(0, dst)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	if r := verify.Grids2D(gathered, ref); !r.Equal {
		t.Fatal(r.Error("gather"))
	}
}

func TestGatherRejectsBadDestination(t *testing.T) {
	ts := LocalCluster(1)
	cfg := testConfig(64, 32)
	r, err := NewRank(0, 1, ts[0], cfg, stencil.Heat2D, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.GatherTo(0, nil); err == nil {
		t.Fatal("nil destination accepted at root")
	}
	wrong := grid.NewGrid2D(10, 10, 1, 1)
	if err := r.GatherTo(0, wrong); err == nil {
		t.Fatal("wrong-shape destination accepted")
	}
}
