package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/uring"
)

// roundWallCap bounds one round in host time. A round normally takes a few
// seconds; a stack that stops making progress fails the run with a report
// instead of hanging it.
const roundWallCap = 60 * time.Second

// buildFunc assembles the stack for a round; tests substitute exp.BuildStack.
type buildFunc func(eng *sim.Engine, kind stackKind, tr *tracer, f *faults) (*stack, error)

// roundConfig is one round: build the stack, serve the inputs, snapshot,
// shut down, recover, verify, tear down.
type roundConfig struct {
	w       *workload
	seed    int64
	in      *inputs
	tr      *tracer // nil for untraced rounds
	profile bool    // CPU-profile the measured phase
	faults  *faults // test-only
	build   buildFunc
}

// round is what one round measured.
type round struct {
	setupS     float64 // stack construction (+ preload)
	hostS      float64 // measured phase: serve, snapshots, shutdown, recovery
	allocBytes uint64  // heap bytes allocated in the measured phase
	peakRSS    float64 // peak resident bytes during the round
	profile    []byte

	v       virtual
	digest  string
	verdict verdict
	final   []int32    // value index per key after the run (-1 = absent)
	log     [][2]int32 // acknowledged SETs in ack order: key, value
}

// verdict is the output check of one round.
type verdict struct {
	attempted int64 // client ops sent
	errored   int64 // ops that returned an error
	wrong     int64 // GETs that returned a value no SET could explain
	missing   int64 // keys whose last acknowledged value is not recovered
	leaked    int64 // pooled segments in flight after teardown
	notes     []string
}

func (v *verdict) failed() int64 { return v.errored + v.wrong + v.missing }

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// virtual holds every simulated-time result and count of a round. Equal
// inputs must give bit-equal virtual results.
type virtual struct {
	ops                 int64
	firstReq, lastReply sim.Time
	setLat, getLat      []sim.Duration
	recover             sim.Duration
	userBytes           int64 // key+value bytes of acknowledged SETs
	engine              imdb.Stats
	snapRaw, snapComp   int64
	backend             backendCounters
	ftl                 ftlCounters
	layers              map[string]int64 // layer counter deltas over the measured phase
}

// progress is published by the simulation for the hang guard, which runs on
// another goroutine.
type progress struct {
	ops  atomic.Int64
	vnow atomic.Int64
}

func runRound(cfg roundConfig) (*round, error) {
	w, in := cfg.w, cfg.in
	res := &round{}
	var prog progress
	guard := time.AfterFunc(roundWallCap, func() {
		fmt.Fprintf(os.Stderr, "perfbench: hang guard: workload %s seed %d did not finish a round within %s; "+
			"virtual time reached %s, %d client ops completed\n",
			w.name, cfg.seed, roundWallCap, sim.Time(prog.vnow.Load()), prog.ops.Load())
		os.Exit(3)
	})
	defer guard.Stop()

	// Start every round from a collected heap returned to the OS, so one
	// round's garbage neither lands a collection in the next round's set-up
	// nor counts toward its peak RSS.
	debug.FreeOSMemory()
	resetPeakRSS()
	h0 := time.Now()
	eng := sim.NewEngine()
	st, err := cfg.build(eng, w.kind, cfg.tr, cfg.faults)
	if err != nil {
		return nil, err
	}
	pool := st.arr.Pool()
	be := &backendShim{Backend: st.be, tr: cfg.tr, faults: cfg.faults}
	var rings []*uring.Ring
	if st.slim != nil {
		be.onSnapshot = func() { rings = append(rings, st.slim.SnapshotRing()) }
	}
	db := imdb.New(eng, be, imdb.Config{Policy: w.policy, WALSnapshotTrigger: walTriggerBytes, Pool: pool}, nil)
	db.Start()
	cl := newClients(w, in, db, cfg.tr, &prog)

	var (
		setupEnd, measEnd time.Time
		m0, m1            runtime.MemStats
		c0                map[string]int64
		measStart         sim.Time
		db2               *imdb.Engine
		runErr            error
		prof              bytes.Buffer
	)
	eng.Spawn("bench-driver", func(env *sim.Env) {
		if w.preload {
			for k, v := range in.preload {
				if err := db.Set(env, in.keys[k], in.values[v]); err != nil {
					runErr = fmt.Errorf("preload %s: %w", in.keys[k], err)
					db.Shutdown(env)
					return
				}
			}
		}
		setupEnd = time.Now()
		be.c = backendCounters{}
		if st.ftl != nil {
			st.ftl.c = ftlCounters{}
		}
		rings = rings[:0]
		c0 = layerCounts(st, rings)
		measStart = env.Now()
		if cfg.profile {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				runErr = err
			}
		}
		runtime.ReadMemStats(&m0)

		for r := range in.reps {
			cl.runRep(env, r)
			if w.onDemandPerRep {
				db.TriggerSnapshot(imdb.OnDemandSnapshot).Reply.Wait(env)
				db.WaitNoSnapshot(env)
			}
		}
		db.WaitNoSnapshot(env)
		db.Shutdown(env)
		prog.vnow.Store(int64(env.Now()))

		if w.dropCaches {
			st.fs.DropCaches()
		}
		db2 = imdb.New(eng, be, imdb.Config{Pool: pool}, nil)
		t0 := env.Now()
		sp := cfg.tr.beginEnv(env, layerEngine, "recover", -1)
		if _, _, err := db2.Recover(env); err != nil {
			runErr = fmt.Errorf("recover: %w", err)
		}
		cfg.tr.end(sp, env.Now())
		res.v.recover = env.Now().Sub(t0)

		runtime.ReadMemStats(&m1)
		if cfg.profile {
			pprof.StopCPUProfile()
		}
		measEnd = time.Now()
	})
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}

	res.setupS = setupEnd.Sub(h0).Seconds()
	res.hostS = measEnd.Sub(setupEnd).Seconds()
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.profile = prof.Bytes()

	v := &res.v
	v.ops, v.firstReq, v.lastReply = cl.ops, cl.firstReq, cl.lastReply
	v.setLat, v.getLat = cl.setLat, cl.getLat
	v.userBytes = cl.userBytes
	v.engine = db.Stats()
	for _, ev := range v.engine.Snapshots {
		if ev.Start >= measStart {
			v.snapRaw += ev.RawBytes
			v.snapComp += ev.CompressedBytes
		}
	}
	v.backend = be.c
	if st.ftl != nil {
		v.ftl = st.ftl.c
	}
	v.layers = layerCounts(st, rings)
	for k, c := range c0 {
		v.layers[k] -= c
	}

	vd := &res.verdict
	*vd = cl.verdict
	for k := range in.keys {
		got := db2.Store().Get(in.keys[k])
		var want []byte
		if id := cl.lastAck[k]; id >= 0 {
			want = in.values[id]
		}
		if !bytes.Equal(got, want) {
			vd.missing++
			vd.note("key %s: recovered value differs from its last acknowledged SET", in.keys[k])
		}
	}
	res.final = cl.lastAck
	res.log = cl.log

	eng.Shutdown()
	db2.ReleaseBuffers() // the recovery engine never ran Shutdown
	st.close()
	if n := pool.InFlight(); n != 0 {
		vd.leaked = n
		vd.note("%d pooled segments in flight after teardown", n)
	} else {
		pool.Close()
	}
	res.digest = v.digest()
	res.peakRSS = peakRSS()
	return res, nil
}

// resetPeakRSS clears the kernel's record of this process's peak RSS, so
// peakRSS measures from here. Where /proc cannot do that, peakRSS reports
// the peak over the process's life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSS is the process's peak resident set in bytes since resetPeakRSS.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024                // Linux reports KiB
}

// lighten drops what only the first round's report needs, so a long run
// does not carry earlier rounds' samples as live heap into later rounds.
func (r *round) lighten() {
	r.v = virtual{ftl: ftlCounters{writes: r.v.ftl.writes, hostWriteNs: r.v.ftl.hostWriteNs}}
	r.final, r.log, r.profile = nil, nil, nil
}

// clients are the simulated closed-loop clients: each sends its next
// request only after the reply to the previous one arrives.
type clients struct {
	in  *inputs
	db  *imdb.Engine
	tr  *tracer
	pr  *progress
	seq int64 // logical clock over sends and acks, for the GET check

	lastAck []int32 // per key: value index of the last acknowledged SET, -1 none
	ackAt   []int64 // per value index: seq of its SET's ack (distinct values)
	sentAt  []int64 // per value index: seq its SET was sent (distinct values)

	ops                 int64
	firstReq, lastReply sim.Time
	setLat, getLat      []sim.Duration
	userBytes           int64
	log                 [][2]int32
	verdict             verdict
}

func newClients(w *workload, in *inputs, db *imdb.Engine, tr *tracer, pr *progress) *clients {
	c := &clients{in: in, db: db, tr: tr, pr: pr, lastAck: make([]int32, len(in.keys))}
	for k := range c.lastAck {
		c.lastAck[k] = -1
	}
	if w.distinctValues {
		c.ackAt = make([]int64, len(in.values))
		c.sentAt = make([]int64, len(in.values))
	}
	// The load phase completes before any client starts.
	for k, v := range in.preload {
		c.lastAck[k] = v
		if c.sentAt != nil {
			c.sentAt[v], c.ackAt[v] = 1, 1
		}
	}
	c.seq = 1
	return c
}

func (c *clients) runRep(env *sim.Env, r int) {
	rep := c.in.reps[r]
	done := sim.NewSignal(env.Engine())
	live := len(rep)
	for i, reqs := range rep {
		env.Spawn(fmt.Sprintf("client-%d", i), func(env *sim.Env) {
			for _, rq := range reqs {
				c.do(env, rq)
			}
			live--
			if live == 0 {
				done.Fire(nil)
			}
		})
	}
	done.Wait(env)
}

func (c *clients) do(env *sim.Env, rq request) {
	in := c.in
	key := in.keys[rq.key]
	if c.verdict.attempted == 0 {
		c.firstReq = env.Now()
	}
	c.verdict.attempted++
	c.seq++
	sent := c.seq
	t0 := env.Now()
	if rq.get {
		sp := c.tr.beginEnv(env, layerClient, "get", rq.id)
		before := c.lastAck[rq.key]
		got, err := c.db.Get(env, key)
		c.tr.end(sp, env.Now())
		c.seq++
		c.getLat = append(c.getLat, env.Now().Sub(t0))
		if err != nil {
			c.verdict.errored++
			c.verdict.note("GET %s: %v", key, err)
		} else if !c.getValid(rq.key, before, sent, c.seq, got) {
			c.verdict.wrong++
			c.verdict.note("GET %s (request %d): value matches neither the last acknowledged SET nor one in flight", key, rq.id)
		}
	} else {
		sp := c.tr.beginEnv(env, layerClient, "set", rq.id)
		if c.sentAt != nil {
			c.sentAt[rq.value] = sent
		}
		err := c.db.Set(env, key, in.values[rq.value])
		c.tr.end(sp, env.Now())
		c.seq++
		c.setLat = append(c.setLat, env.Now().Sub(t0))
		if err != nil {
			c.verdict.errored++
			c.verdict.note("SET %s: %v", key, err)
		} else {
			c.lastAck[rq.key] = rq.value
			if c.ackAt != nil {
				c.ackAt[rq.value] = c.seq
			}
			c.userBytes += int64(len(key) + len(in.values[rq.value]))
			c.log = append(c.log, [2]int32{rq.key, rq.value})
		}
	}
	c.ops++
	c.lastReply = env.Now()
	c.pr.ops.Add(1)
	c.pr.vnow.Store(int64(env.Now()))
}

// getValid reports whether a GET of key, sent at logical time sent and
// answered at replied, may return got: either the last SET acknowledged
// before the GET was sent, or a SET that was in flight at some point
// while the GET was. Every payload carries its value index in its first
// eight bytes (distinct values), which identifies the SET that wrote it.
func (c *clients) getValid(key, before int32, sent, replied int64, got []byte) bool {
	if len(got) < 8 {
		return false
	}
	id := binary.LittleEndian.Uint64(got)
	if id >= uint64(len(c.in.values)) || !bytes.Equal(got, c.in.values[id]) {
		return false
	}
	v := int32(id)
	if v == before {
		return true
	}
	if c.in.valueKey[v] != key {
		return false
	}
	return c.sentAt[v] != 0 && c.sentAt[v] < replied && (c.ackAt[v] == 0 || c.ackAt[v] > sent)
}
