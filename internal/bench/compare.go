package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"

	"tessellate/internal/cpu"
)

// Comparison driver: every stencilbench experiment that claims a ratio
// (tessellation against a baseline, or one design choice against
// another) is a table of Cases run by Compare, and every result is a
// Row of one schema, collected into a Ledger (BENCH_LEDGER.json).

// Rounds is the number of timed rounds stencilbench runs per case.
const Rounds = 11

// Variant is one named way to compute a case's result.
type Variant struct {
	Name string
	// Run computes the case once and returns the seconds its timed
	// part took and the checksum of its result. round numbers the
	// run (-1 is the warm-up); a variant that reseeds its input per
	// round seeds it from round, so every variant of one round sees
	// the same input.
	Run func(round int) (seconds, checksum float64, err error)
}

// Case is one comparison: a workload and the variants that compute
// it, the reference first.
type Case struct {
	Workload string
	// Updates is the point updates one run performs.
	Updates  float64
	Variants []Variant
}

// Row is one (experiment, workload, variant) result: the median and
// interquartile range of Repeats timed rounds.
type Row struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Variant    string  `json:"variant"`
	Repeats    int     `json:"repeats"`
	Seconds    float64 `json:"seconds"`
	SecondsIQR float64 `json:"seconds_iqr"`
	MUpdates   float64 `json:"mupdates"`
	// Ratio is the reference's median seconds over this variant's:
	// above 1 the variant is faster (1 for the reference itself).
	Ratio float64 `json:"ratio"`
	// Checksum is the first timed round's; every round's checksums
	// match the reference's bitwise.
	Checksum float64 `json:"checksum"`
}

// Compare runs one checked warm-up per variant, then rounds timed
// rounds. Round r starts at variant r mod len(Variants), so an order
// effect (a warm cache, a clock ramp) does not fall on one variant
// only. Each round's checksums must equal the reference's bitwise.
func Compare(c Case, rounds int) ([]Row, error) {
	n := len(c.Variants)
	if n == 0 || rounds < 1 {
		return nil, fmt.Errorf("bench: %s: %d variants, %d rounds", c.Workload, n, rounds)
	}
	secs := make([][]float64, n)
	var checksum float64
	for r := -1; r < rounds; r++ {
		sums := make([]float64, n)
		for i := 0; i < n; i++ {
			k := i
			if r >= 0 {
				k = (r + i) % n
			}
			v := c.Variants[k]
			s, sum, err := v.Run(r)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", c.Workload, v.Name, err)
			}
			sums[k] = sum
			if r >= 0 {
				secs[k] = append(secs[k], s)
			}
		}
		for k := 1; k < n; k++ {
			if sums[k] != sums[0] {
				return nil, fmt.Errorf("bench: %s round %d: %s checksum %v != %s %v",
					c.Workload, r, c.Variants[k].Name, sums[k], c.Variants[0].Name, sums[0])
			}
		}
		if r == 0 {
			checksum = sums[0]
		}
	}
	rows := make([]Row, n)
	for k, v := range c.Variants {
		sort.Float64s(secs[k])
		med := quantile(secs[k], 0.5)
		rows[k] = Row{
			Workload:   c.Workload,
			Variant:    v.Name,
			Repeats:    rounds,
			Seconds:    med,
			SecondsIQR: quantile(secs[k], 0.75) - quantile(secs[k], 0.25),
			MUpdates:   c.Updates / med / 1e6,
			Ratio:      rows[0].Seconds / med,
			Checksum:   checksum,
		}
	}
	rows[0].Ratio = 1
	return rows, nil
}

// Experiment is a named case table.
type Experiment struct {
	Name string
	// Cases builds the table at a problem-size divisor and thread
	// count; each case clamps its own sizes to what it can run.
	Cases func(scale, threads int) ([]Case, error)
}

// Run builds the experiment's cases and compares each over rounds
// timed rounds.
func (e Experiment) Run(scale, threads, rounds int) ([]Row, error) {
	cases, err := e.Cases(scale, threads)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
	}
	var out []Row
	for _, c := range cases {
		rows, err := Compare(c, rounds)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			rows[i].Experiment = e.Name
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Ledger is the machine-readable record of a set of comparisons (the
// schema of BENCH_LEDGER.json).
type Ledger struct {
	// Commit is the VCS revision the binary was built from, with a
	// "+modified" suffix for a dirty tree ("unknown" without build
	// info).
	Commit  string `json:"commit"`
	Host    Host   `json:"host"`
	Scale   int    `json:"scale"`
	Threads int    `json:"threads"`
	Rows    []Row  `json:"rows"`
}

// Host records what a ledger was measured on.
type Host struct {
	// CPUFeatures lists the vector extensions detected at run time
	// ("none" without), so the simd rows say what they ran.
	CPUFeatures string `json:"cpu_features"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
}

// NewLedger returns an empty ledger stamped with this host and the
// binary's commit.
func NewLedger(scale, threads int) Ledger {
	return Ledger{
		Commit: buildCommit(),
		Host: Host{
			CPUFeatures: cpu.Features(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
		},
		Scale:   scale,
		Threads: threads,
	}
}

func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
