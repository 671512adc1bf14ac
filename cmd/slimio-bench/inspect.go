package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

// inspectReport is the "inspect" experiment: one redis-bench cell per SlimIO
// stack, dumped as the device and backend state a storage engineer would
// look at — LBA layout, snapshot slot roles, reclaim-unit occupancy, per-PID
// write volumes and wear — plus, when traced, the span summary.
type inspectReport struct {
	dumps []string
}

func (r *inspectReport) String() string {
	return strings.Join(r.dumps, "\n")
}

// runInspect runs the inspect cells one after the other on slimio-fdp and
// slimio-noFDP.
func runInspect(sc exp.Scale) (fmt.Stringer, error) {
	out := &inspectReport{}
	for _, kind := range []exp.BackendKind{exp.SlimIOFDP, exp.SlimIOConv} {
		res, err := exp.RunCell(exp.CellConfig{
			Kind:           kind,
			Policy:         imdb.PeriodicalLog,
			Scale:          sc,
			Workload:       workload.RedisBench(0, sc.KeyRange),
			OnDemandPerRep: true,
		})
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		dumpCell(&b, res, sc.Name)
		out.dumps = append(out.dumps, b.String())
		res.Stack.Eng.Shutdown()
		if err := res.ReleaseHeavy(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dumpCell prints one inspect cell: the run summary, the SlimIO backend's
// write counters and slots, the device's counters, the FTL's reclaim units,
// block wear, and the span summary when the cell was traced.
func dumpCell(w io.Writer, res *exp.CellResult, scale string) {
	fmt.Fprintf(w, "== run ==\n")
	fmt.Fprintf(w, "stack          %s (%s)\n", res.Config.Kind, scale)
	fmt.Fprintf(w, "duration       %v (virtual)\n", res.Duration)
	fmt.Fprintf(w, "avg RPS        %.0f\n", res.AvgRPS)
	fmt.Fprintf(w, "snapshots      %d (mean %v)\n", len(res.Snapshots), res.MeanSnapshotTime)
	fmt.Fprintf(w, "SET p99.9      %v\n", res.SetP999)

	slim := res.Stack.Slim
	fmt.Fprintf(w, "\n== SlimIO backend ==\n")
	st := slim.Stats()
	fmt.Fprintf(w, "WAL page writes     %d (+%d tail rewrites)\n", st.WALPageWrites, st.WALTailRewrites)
	fmt.Fprintf(w, "snapshot pages      %d\n", st.SnapshotPageWrites)
	fmt.Fprintf(w, "metadata writes     %d\n", st.MetadataWrites)
	fmt.Fprintf(w, "promotions          %d\n", st.Promotions)
	fmt.Fprintf(w, "WAL resets          %d\n", st.WALResets)
	fmt.Fprintf(w, "deallocated pages   %d\n", st.DeallocatedPages)
	fmt.Fprintf(w, "\nsnapshot slots:\n")
	for _, s := range slim.Slots() {
		fmt.Fprintf(w, "  slot %d  %-13s start=%-8d pages=%-7d used=%d bytes\n",
			s.Index, s.Role, s.Start, s.Pages, s.Used)
	}

	dev := res.Stack.Dev
	d := dev.Stats()
	fmt.Fprintf(w, "\n== device ==\n")
	fmt.Fprintf(w, "host writes    %d pages\n", d.HostWritePages)
	fmt.Fprintf(w, "nand writes    %d pages\n", d.NANDWritePages)
	fmt.Fprintf(w, "GC copies      %d pages\n", d.GCCopiedPages)
	fmt.Fprintf(w, "GC runs        %d (busy %v)\n", d.GCRuns, d.GCBusy)
	fmt.Fprintf(w, "WAF            %.4f\n", d.WAF())

	switch f := dev.FTL().(type) {
	case *fdp.FTL:
		st := f.Stats()
		fmt.Fprintf(w, "\n== FDP FTL ==\n")
		fmt.Fprintf(w, "RUs reclaimed  %d (%d without any copy)\n", st.RUsReclaimed, st.RUsReclaimedEmpty)
		fmt.Fprintf(w, "writes by PID:\n")
		for _, pc := range st.PIDWrites() {
			if pc.HostWrites > 0 || pc.GCCopies > 0 {
				fmt.Fprintf(w, "  PID %d: %d pages (%d GC copies)\n", pc.PID, pc.HostWrites, pc.GCCopies)
			}
		}
		printUsage(w, f.Usage())
		printWear(w, f.Array().Wear())
	case *fdp.Conventional:
		fmt.Fprintf(w, "\n== conventional FTL (line-based, single stream) ==\n")
		printUsage(w, f.Usage())
		printWear(w, f.Array().Wear())
	}

	if res.Trace != nil {
		printSpans(w, res.Trace)
	}
}

// printSpans summarizes a cell's trace: span/event volume per layer and the
// per-layer latency attribution report.
func printSpans(w io.Writer, tr *vtrace.Tracer) {
	fmt.Fprintf(w, "\n== spans ==\n")
	perLayer := map[string]int{}
	for _, s := range tr.Spans() {
		perLayer[s.Layer]++
	}
	layers := make([]string, 0, len(perLayer))
	for l := range perLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "spans %d, instants %d, dropped %d\n", len(tr.Spans()), len(tr.Events()), tr.Dropped())
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %d\n", l, perLayer[l])
	}
	fmt.Fprintf(w, "\nLatency attribution:\n")
	fmt.Fprint(w, vtrace.Compute(tr).Format())
}

func printWear(w io.Writer, wear nand.WearStats) {
	fmt.Fprintf(w, "\n== wear ==\n")
	fmt.Fprintf(w, "block erases   min=%d max=%d mean=%.2f total=%d\n",
		wear.MinErases, wear.MaxErases, wear.MeanErases, wear.TotalErases)
}

func printUsage(w io.Writer, usage []fdp.RUUsage) {
	var free, open, closed int
	for _, u := range usage {
		switch u.State {
		case "free":
			free++
		case "open":
			open++
		default:
			closed++
		}
	}
	fmt.Fprintf(w, "reclaim units: %d free, %d open, %d closed\n", free, open, closed)
	fmt.Fprintf(w, "non-free units (valid/total pages):\n")
	for _, u := range usage {
		if u.State == "free" {
			continue
		}
		fmt.Fprintf(w, "  RU %3d %-6s pid=%d %5d/%d\n", u.ID, u.State, u.PID, u.Valid, u.Total)
	}
}
