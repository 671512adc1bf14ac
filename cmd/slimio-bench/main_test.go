package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/results-tiny.golden from this run")

// wallTimeLine matches the host-clock lines of slimio-bench's output, the
// only part of a run that is not bit-deterministic.
var wallTimeLine = regexp.MustCompile(`(?m)^.*wall time.*\n`)

// TestResultsGolden pins every printed result of `slimio-bench -exp all
// -scale tiny`, wall-time lines stripped, to a committed golden file. A
// refactor that keeps the simulation unchanged must leave it byte-identical;
// a change that moves a number must regenerate it with -update and explain
// the diff.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole tiny-scale suite")
	}
	sc := exp.TinyScale()
	ctr := &metrics.Counter{}
	sc.Metrics = ctr
	var out bytes.Buffer
	s := suite{sc: sc, has: selector([]string{"all"}), figWindow: 3 * sim.Second}
	if _, err := s.run(&out); err != nil {
		t.Fatal(err)
	}
	printFaultCounters(&out, ctr)
	got := wallTimeLine.ReplaceAll(out.Bytes(), nil)

	golden := filepath.Join("testdata", "results-tiny.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestResultsGolden -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("results differ from %s (rerun with -update only if the change is intended):\n%s", golden, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got string) string {
	wl := bytes.Split([]byte(want), []byte("\n"))
	gl := bytes.Split([]byte(got), []byte("\n"))
	var b bytes.Buffer
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			b.WriteString("- " + string(w) + "\n+ " + string(g) + "\n")
		}
	}
	return b.String()
}
