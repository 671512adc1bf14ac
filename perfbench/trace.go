package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"

	"github.com/slimio/slimio/internal/sim"
)

// Span layers recorded by the traced run, all from the benchmark's own
// files: client ops around imdb.Engine.Set/Get, recovery around Recover, the backend and
// snapshot-sink shims, and the FTL shim.
const (
	layerClient  = "client"
	layerEngine  = "engine"
	layerBackend = "backend"
	layerSink    = "sink"
	layerFTL     = "ftl"
)

// span is one traced call. Its parent is the enclosing open span on the
// same simulated process; client ops carry their request id.
type span struct {
	name, layer  string
	parent       int32
	req          int32 // -1 when not a client op
	vStart, vEnd sim.Time
	hStart, hEnd int64   // host ns since the tracer started
	g            uintptr // goroutine that opened the span
}

// tracer keeps spans in memory until the run ends. Every simulated process
// runs on its own goroutine and only one runs at a time, so the goroutine
// id identifies the process even at the FTL seam, which gets no *sim.Env.
// A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  map[uintptr][]int32 // goroutine → stack of open span ids (1-based)
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[uintptr][]int32)}
}

func (t *tracer) begin(layer, name string, req int32, vnow sim.Time) int32 {
	if t == nil {
		return 0
	}
	g := goid()
	stack := t.open[g]
	var parent int32
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	t.spans = append(t.spans, span{
		name: name, layer: layer, parent: parent, req: req,
		vStart: vnow, hStart: int64(time.Since(t.t0)), g: g,
	})
	id := int32(len(t.spans))
	t.open[g] = append(stack, id)
	return id
}

func (t *tracer) beginEnv(env *sim.Env, layer, name string, req int32) int32 {
	if t == nil {
		return 0
	}
	return t.begin(layer, name, req, env.Now())
}

func (t *tracer) end(id int32, vnow sim.Time) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	sp.vEnd = vnow
	sp.hEnd = int64(time.Since(t.t0))
	stack := t.open[sp.g]
	if n := len(stack); n > 0 && stack[n-1] == id {
		t.open[sp.g] = stack[:n-1]
	}
}

// write stores the spans as gzipped CSV, one row per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,layer,name,req,v_start_ns,v_end_ns,host_start_ns,host_end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d,%d,%d,%d\n", i+1, s.parent, s.layer, s.name, s.req,
			int64(s.vStart), int64(s.vEnd), s.hStart, s.hEnd)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
