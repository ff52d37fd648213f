package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies dataset cardinalities in (0, 1]; 1 is paper scale.
	// Values ≤ 0 fall back to DefaultScale.
	Scale float64
	// SF is the TPC-H scale factor for table4/table5/figure3; the paper's
	// "1GB" database is SF 1. Values ≤ 0 fall back to DefaultSF.
	SF float64
	// Seed drives every generator; runs are reproducible per (Scale, SF,
	// Seed).
	Seed int64
	// MaxAdded bounds repair search depth where the experiment does not
	// dictate it; 0 keeps each experiment's default.
	MaxAdded int
	// Parallelism bounds candidate-evaluation workers (0 = GOMAXPROCS).
	Parallelism int
}

// Defaults keep `go test -bench=.` in the minutes range on a laptop.
const (
	DefaultScale = 0.05
	DefaultSF    = 0.01
)

// FromEnv builds a Config from EVOLVEFD_SCALE, EVOLVEFD_SF and EVOLVEFD_SEED
// (used by the root benchmarks so paper-scale runs need no code change).
func FromEnv() Config {
	cfg := Config{}
	if v, err := strconv.ParseFloat(os.Getenv("EVOLVEFD_SCALE"), 64); err == nil {
		cfg.Scale = v
	}
	if v, err := strconv.ParseFloat(os.Getenv("EVOLVEFD_SF"), 64); err == nil {
		cfg.SF = v
	}
	if v, err := strconv.ParseInt(os.Getenv("EVOLVEFD_SEED"), 10, 64); err == nil {
		cfg.Seed = v
	}
	return cfg
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return DefaultScale
	}
	if c.Scale > 1 {
		return 1
	}
	return c.Scale
}

func (c Config) sf() float64 {
	if c.SF <= 0 {
		return DefaultSF
	}
	return c.SF
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 20160315 // EDBT 2016 opening day
	}
	return c.Seed
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the registry key, e.g. "table5".
	ID string
	// Title describes the paper artefact, e.g. "Table 5: FindFDRepairs
	// processing times".
	Title string
	// Run executes the experiment and writes its report to w.
	Run func(cfg Config, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunOne executes one experiment with the standard header and error
// context, writing its report to w.
func RunOne(e Experiment, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "==== %s — %s ====\n", e.ID, e.Title)
	if err := e.Run(cfg, w); err != nil {
		return fmt.Errorf("bench: %s: %w", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// RunAll executes every registered experiment in ID order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(e, cfg, w); err != nil {
			return err
		}
	}
	return nil
}

// fmtDuration renders durations the way the paper prints them (1h 59m 19s,
// 4s 678ms, 5ms) so paper-vs-measured columns line up visually.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh %dm %ds", int(d.Hours()), int(d.Minutes())%60, int(d.Seconds())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm %ds %dms", int(d.Minutes()), int(d.Seconds())%60, d.Milliseconds()%1000)
	case d >= time.Second:
		return fmt.Sprintf("%ds %dms", int(d.Seconds()), d.Milliseconds()%1000)
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
