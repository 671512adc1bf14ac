// Command slimio-bench regenerates the paper's tables and figures at a
// chosen scale and prints them in the paper's row format.
//
// Usage:
//
//	slimio-bench -exp all                 # every table and figure, small scale
//	slimio-bench -exp table3              # one experiment
//	slimio-bench -exp table3 -scale tiny  # quick run
//	slimio-bench -exp table3 -device 1024 -ops 200000 -keys 40000
//	slimio-bench -tenants 4 -noisy       # multi-tenant isolation experiment
//	slimio-bench -exp fig4 -telemetry out/  # also write the RPS series as CSV
//	slimio-bench -exp inspect -scale tiny  # device / slot / RU state dump
//
// Experiments: table1 table2 table3 table4 table5 fig2 fig4 fig5 all, plus
// the opt-in isolation (also selected by -tenants) and inspect, which "all"
// leaves out so the committed BENCH_*.json baselines keep their experiment
// set. -vtrace adds per-layer latency attribution to table3, fig4 and fig5
// and a span summary to inspect.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
)

func main() {
	var (
		expName = flag.String("exp", "all", "experiment: table1..table5, fig2, fig4, fig5, all, isolation, inspect")
		scale   = flag.String("scale", "small", "scale preset: tiny or small")
		device  = flag.Int64("device", 0, "override device size in MiB")
		keys    = flag.Int64("keys", 0, "override key range")
		ops     = flag.Int64("ops", 0, "override operations per repetition")
		reps    = flag.Int("reps", 0, "override repetitions")
		trigger = flag.Int64("trigger", 0, "override WAL-snapshot trigger in MiB")
		window  = exp.SimDurationFlag("window", 0, "override figure 4/5 window (virtual time)")
		tenants = flag.Int("tenants", 0, "run the multi-tenant isolation experiment with this many co-located engines (adds exp \"isolation\")")
		noisy   = flag.Bool("noisy", false, "make tenant 0 a Zipf-heavy overwriter in the isolation experiment")

		parallel   = flag.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial)")
		vtraceOut  = flag.String("vtrace", "", "trace the run and write a Chrome trace-event JSON file (requires a single -exp)")
		teleDir    = flag.String("telemetry", "", "sample per-layer telemetry and write telemetry.json, metrics.prom, per-cell CSVs and fig4/fig5 RPS series (fig<N>-<kind>.csv) into this directory (requires a single -exp)")
		benchJSON  = flag.String("benchjson", "", "write per-experiment wall-clock/allocs/throughput records to this JSON file")
		compare    = flag.String("compare", "", "compare this run's allocator traffic against a committed BENCH_*.json and fail on regression")
		tolerance  = flag.Float64("tolerance", 0.15, "allowed fractional allocs/alloc_bytes growth before -compare fails")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		faultSeed  = flag.Int64("fault-seed", 0, "seed for the deterministic fault plan")
		readErr    = flag.Float64("read-err-rate", 0, "per-read probability of a transient read failure")
		programErr = flag.Float64("program-err-rate", 0, "per-program probability of a permanent failure (retires the block)")
		eraseErr   = flag.Float64("erase-err-rate", 0, "per-erase probability of an erase failure (retires the block)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sc := exp.SmallScale()
	if *scale == "tiny" {
		sc = exp.TinyScale()
	}
	if *device > 0 {
		sc.DeviceBytes = *device << 20
	}
	if *keys > 0 {
		sc.KeyRange = *keys
	}
	if *ops > 0 {
		sc.OpsPerRep = *ops
	}
	if *reps > 0 {
		sc.Reps = *reps
	}
	if *trigger > 0 {
		sc.WALTriggerBytes = *trigger << 20
	}
	figWindow := 3 * sim.Second
	if *window > 0 {
		figWindow = *window
	}
	ctr := &metrics.Counter{}
	sc.FaultSeed = *faultSeed
	sc.ReadErrRate = *readErr
	sc.ProgramErrRate = *programErr
	sc.EraseErrRate = *eraseErr
	sc.Metrics = ctr
	sc.Parallel = *parallel

	wanted := strings.Split(*expName, ",")
	hasExact := func(name string) bool {
		for _, w := range wanted {
			if w == name {
				return true
			}
		}
		return false
	}
	// The isolation experiment is opt-in via -tenants (or an explicit -exp
	// isolation); "all" deliberately excludes it so the committed bench
	// baselines keep their experiment set. -tenants alone (no explicit
	// -exp) runs just the isolation experiment.
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})
	if *tenants > 0 && !expSet {
		wanted = []string{"isolation"}
	} else if *tenants > 0 && !hasExact("isolation") {
		wanted = append(wanted, "isolation")
	}
	if hasExact("isolation") && *tenants <= 0 {
		*tenants = 2
	}
	has := selector(wanted)

	if *vtraceOut != "" {
		// One registry per run: tracer labels are per-cell, and reusing a
		// label across experiments would interleave unrelated runs in one
		// lane, so tracing is limited to a single experiment.
		if len(wanted) != 1 || wanted[0] == "all" {
			fmt.Fprintln(os.Stderr, "-vtrace requires exactly one -exp experiment")
			os.Exit(2)
		}
		sc.Trace = vtrace.NewRegistry()
	}
	if *teleDir != "" {
		// Same labelling rule as -vtrace: telemetry cells are per-cell-label.
		if len(wanted) != 1 || wanted[0] == "all" {
			fmt.Fprintln(os.Stderr, "-telemetry requires exactly one -exp experiment")
			os.Exit(2)
		}
		sc.Telemetry = telemetry.NewRegistry(0)
		// Failures mid-run (unrecovered faults, cell panics) dump their
		// flight rings next to the telemetry artifacts.
		sc.Telemetry.FlightDir = *teleDir
	}

	// Per-cell alloc attribution needs serial cells: MemStats deltas are
	// process-wide, so concurrent cells would bill each other's traffic.
	if (*benchJSON != "" || *compare != "") && (*parallel == 1 || runtime.GOMAXPROCS(0) == 1) {
		sc.CellCosts = &exp.CellCostSink{}
	}

	start := time.Now()
	s := suite{sc: sc, has: has, figWindow: figWindow, tenants: *tenants, noisy: *noisy, csvDir: *teleDir}
	report, err := s.run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printFaultCounters(os.Stdout, ctr)
	if sc.Trace != nil {
		if err := writeTrace(*vtraceOut, sc.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if sc.Telemetry != nil {
		if err := writeTelemetry(*teleDir, sc.Telemetry, ctr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("total wall time %.1fs\n", time.Since(start).Seconds())

	report.TotalWallSeconds = time.Since(start).Seconds()
	if *benchJSON != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*benchJSON, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	if *compare != "" {
		if err := compareReports(*compare, report, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// selector reports whether an experiment is among wanted. "all" selects
// every experiment except the opt-in isolation and inspect.
func selector(wanted []string) func(string) bool {
	return func(name string) bool {
		for _, w := range wanted {
			if w == name || (w == "all" && name != "isolation" && name != "inspect") {
				return true
			}
		}
		return false
	}
}

// suite is one slimio-bench run: the scale, the selected experiments and
// the experiment-specific settings.
type suite struct {
	sc        exp.Scale
	has       func(string) bool
	figWindow sim.Duration
	tenants   int
	noisy     bool
	// csvDir, when set, receives the fig4/fig5 RPS series.
	csvDir string
}

// run runs every selected experiment in the suite's fixed order and prints
// each result to w followed by its wall-time line. It stops at the first
// failing experiment.
func (s suite) run(w io.Writer) (*benchReport, error) {
	sc := s.sc
	report := &benchReport{Scale: sc.Name, Parallel: sc.Parallel, GoMaxProcs: runtime.GOMAXPROCS(0)}
	experiments := []struct {
		name string
		fn   func() (fmt.Stringer, error)
	}{
		{"table1", func() (fmt.Stringer, error) { return exp.RunTable1(sc) }},
		{"table2", func() (fmt.Stringer, error) { return exp.RunTable2(sc) }},
		{"fig2", func() (fmt.Stringer, error) { return exp.RunFigure2(sc) }},
		{"table3", func() (fmt.Stringer, error) { return exp.RunTable3(sc) }},
		{"table4", func() (fmt.Stringer, error) { return exp.RunTable4(sc) }},
		{"table5", func() (fmt.Stringer, error) { return exp.RunTable5(sc) }},
		{"fig4", func() (fmt.Stringer, error) { return runFigure(4, sc, s.figWindow, s.csvDir) }},
		{"fig5", func() (fmt.Stringer, error) { return runFigure(5, sc, s.figWindow, s.csvDir) }},
		{"isolation", func() (fmt.Stringer, error) { return exp.RunIsolation(sc, s.tenants, s.noisy) }},
		{"inspect", func() (fmt.Stringer, error) { return runInspect(sc) }},
	}
	for _, e := range experiments {
		if !s.has(e.name) {
			continue
		}
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := e.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		wall := time.Since(t0).Seconds()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		rec := benchRecord{
			Name:        e.name,
			WallSeconds: wall,
			Allocs:      int64(m1.Mallocs - m0.Mallocs),
			AllocBytes:  int64(m1.TotalAlloc - m0.TotalAlloc),
			VirtualRPS:  virtualRPS(out),
		}
		if sc.CellCosts != nil {
			rec.Cells = sc.CellCosts.Drain()
		}
		report.Experiments = append(report.Experiments, rec)
		fmt.Fprintln(w, out.String())
		fmt.Fprintf(w, "(%s finished in %.1fs wall time)\n\n", e.name, wall)
		// Each experiment holds a full simulated device (real page bytes);
		// return the memory before building the next one.
		debug.FreeOSMemory()
	}
	return report, nil
}

// benchReport is the -benchjson payload: the perf trajectory of the suite,
// tracked as a committed BENCH_<n>.json per PR.
type benchReport struct {
	Scale            string        `json:"scale"`
	Parallel         int           `json:"parallel"`
	GoMaxProcs       int           `json:"gomaxprocs"`
	Experiments      []benchRecord `json:"experiments"`
	TotalWallSeconds float64       `json:"total_wall_seconds"`
}

// benchRecord is one experiment's cost: wall clock, allocator traffic, and
// the virtual-time throughput the simulated systems achieved. Cells breaks
// the allocator traffic down per experiment cell (serial runs only), so a
// regression is attributable to one configuration rather than one table.
type benchRecord struct {
	Name        string         `json:"name"`
	WallSeconds float64        `json:"wall_seconds"`
	Allocs      int64          `json:"allocs"`
	AllocBytes  int64          `json:"alloc_bytes"`
	VirtualRPS  float64        `json:"virtual_rps,omitempty"`
	Cells       []exp.CellCost `json:"cells,omitempty"`
}

// virtualRPS extracts a representative virtual-time request rate from an
// experiment result (mean over rows/systems), 0 where the experiment does
// not measure one.
func virtualRPS(out fmt.Stringer) float64 {
	mean := func(vals []float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	switch r := out.(type) {
	case *exp.Table1Result:
		var vals []float64
		for _, row := range r.Rows {
			vals = append(vals, row.RPS)
		}
		return mean(vals)
	case *exp.OverallResult:
		var vals []float64
		for _, row := range r.Rows {
			vals = append(vals, row.Result.AvgRPS)
		}
		return mean(vals)
	case *figureReport:
		var vals []float64
		for _, tr := range []*exp.TimelineResult{r.base, r.slim} {
			vals = append(vals, tr.Summarize(r.warmup).MeanRPS)
		}
		return mean(vals)
	default:
		return 0
	}
}

// printFaultCounters summarizes injected faults and how the stack absorbed
// them (retries, retired blocks, migrations, lost pages) across every
// experiment that ran. Silent when nothing was injected or counted.
func printFaultCounters(w io.Writer, ctr *metrics.Counter) {
	kvs := ctr.Sorted()
	if len(kvs) == 0 {
		return
	}
	fmt.Fprintln(w, "Fault & error-handling counters (all experiments):")
	for _, kv := range kvs {
		fmt.Fprintf(w, "  %-24s %d\n", kv.Key, kv.Value)
	}
	fmt.Fprintln(w)
}

// writeTelemetry exports the run's telemetry registry into dir: the
// canonical JSON dump (validated against its own schema before writing, the
// same trust-but-verify step as writeTrace), an OpenMetrics text snapshot
// carrying the fault/error counter totals, and one CSV time-series per cell.
func writeTelemetry(dir string, reg *telemetry.Registry, ctr *metrics.Counter) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := reg.ExportJSON(&buf); err != nil {
		return fmt.Errorf("export telemetry: %w", err)
	}
	if err := telemetry.ValidateDump(buf.Bytes()); err != nil {
		return fmt.Errorf("exported telemetry failed validation: %w", err)
	}
	dumpPath := filepath.Join(dir, "telemetry.json")
	if err := os.WriteFile(dumpPath, buf.Bytes(), 0o644); err != nil {
		return err
	}

	var prom bytes.Buffer
	if err := reg.ExportOpenMetrics(&prom, ctr.Sorted()); err != nil {
		return fmt.Errorf("export openmetrics: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), prom.Bytes(), 0o644); err != nil {
		return err
	}

	dump := reg.Snapshot()
	for i := range dump.Cells {
		c := &dump.Cells[i]
		var csv bytes.Buffer
		if err := c.CSV(&csv); err != nil {
			return err
		}
		name := telemetry.SanitizeLabel(c.Label) + ".csv"
		if err := os.WriteFile(filepath.Join(dir, name), csv.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s (%d bytes, %d cells)\n", dumpPath, buf.Len(), len(dump.Cells))
	return nil
}

// writeTrace exports the run's span registry as Chrome trace-event JSON,
// validating it against the trace-event schema before writing.
func writeTrace(path string, reg *vtrace.Registry) error {
	var buf bytes.Buffer
	if err := reg.Export(&buf); err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	if err := vtrace.ValidateTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("exported trace failed validation: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, %d cells)\n", path, buf.Len(), len(reg.Labels()))
	return nil
}

type figureReport struct {
	name       string
	base, slim *exp.TimelineResult
	warmup     sim.Duration
}

// runFigure runs Figure 4 or 5 and, when csvDir is set, writes each
// system's RPS series there as fig<n>-<kind>.csv.
func runFigure(n int, sc exp.Scale, window sim.Duration, csvDir string) (fmt.Stringer, error) {
	var base, slim *exp.TimelineResult
	var err error
	if n == 4 {
		base, slim, err = exp.RunFigure4(sc, window)
	} else {
		base, slim, err = exp.RunFigure5(sc, window)
	}
	if err != nil {
		return nil, err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return nil, err
		}
		for _, tr := range []*exp.TimelineResult{base, slim} {
			path := filepath.Join(csvDir, fmt.Sprintf("fig%d-%s.csv", n, tr.Kind))
			if err := os.WriteFile(path, []byte(tr.Series.CSV()), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return &figureReport{name: fmt.Sprintf("Figure %d", n), base: base, slim: slim, warmup: window / 5}, nil
}

func (f *figureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Runtime RPS summary (-telemetry DIR writes the full series)\n", f.name)
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %8s %8s\n", "System", "Mean RPS", "Min RPS", "Floor", "Dips", "WAF")
	for _, tr := range []*exp.TimelineResult{f.base, f.slim} {
		s := tr.Summarize(f.warmup)
		floor := 0.0
		if s.MeanRPS > 0 {
			floor = s.MinRPS / s.MeanRPS
		}
		fmt.Fprintf(&b, "%-16s %12.0f %12.0f %9.0f%% %8d %8.2f\n",
			tr.Kind, s.MeanRPS, s.MinRPS, 100*floor, s.Nosedives, tr.WAF)
	}
	for _, tr := range []*exp.TimelineResult{f.base, f.slim} {
		if tr.Trace != nil {
			fmt.Fprintf(&b, "\nLatency attribution — %s:\n", tr.Kind)
			b.WriteString(vtrace.Compute(tr.Trace).Format())
		}
	}
	return b.String()
}
