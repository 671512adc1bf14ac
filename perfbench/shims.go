package main

import (
	"time"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/wal"
)

// The shims sit at two of the program's own interface seams. Each embeds
// the interface and overrides only the methods it measures, so every other
// call passes straight through and the simulated model cannot tell the shim
// is there (the determinism digest checks this). They count calls, pages and
// bytes and stamp virtual service times in every run; with a tracer they
// also record host-clock spans.

// faults are test-only disturbances injected at the seams, used to show the
// benchmark sees a change in the layer it claims to measure.
type faults struct {
	ftlHostWork  time.Duration // host busy-work added to each FTL write
	walSyncDelay sim.Duration  // virtual latency added to each WALSync
}

// ftlCounters is what the FTL shim measures.
type ftlCounters struct {
	writes, reads, deallocs int64
	writeBytes              int64
	writeSvc                []sim.Duration // virtual service time per page write
	hostWriteNs             int64          // traced runs only
}

// ftlShim sits between the NVMe front-end (ssd.Device) and the FDP or
// conventional FTL. ssd.FTL.Write never parks, so host time around it is
// exactly the self time of the FTL and NAND layers.
type ftlShim struct {
	ssd.FTL
	c      ftlCounters
	tr     *tracer
	faults *faults
}

func (s *ftlShim) Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (sim.Time, error) {
	sp := s.tr.begin(layerFTL, "write", -1, now)
	var h0 time.Time
	if s.tr != nil {
		h0 = time.Now()
	}
	s.hostWork()
	done, err := s.FTL.Write(now, lpa, data, pid)
	if s.tr != nil {
		s.c.hostWriteNs += int64(time.Since(h0))
		s.tr.end(sp, done)
	}
	s.c.writes++
	s.c.writeBytes += int64(s.FTL.PageSize())
	s.c.writeSvc = append(s.c.writeSvc, done.Sub(now))
	return done, err
}

func (s *ftlShim) hostWork() {
	if s.faults == nil || s.faults.ftlHostWork <= 0 {
		return
	}
	for t0 := time.Now(); time.Since(t0) < s.faults.ftlHostWork; {
	}
}

func (s *ftlShim) Read(now sim.Time, lpa int64) ([]byte, sim.Time, error) {
	sp := s.tr.begin(layerFTL, "read", -1, now)
	data, done, err := s.FTL.Read(now, lpa)
	s.tr.end(sp, done)
	s.c.reads++
	return data, done, err
}

func (s *ftlShim) Deallocate(lpa, count int64) error {
	s.c.deallocs++
	return s.FTL.Deallocate(lpa, count)
}

// backendCounters is what the backend and snapshot-sink shims measure.
type backendCounters struct {
	walAppends, walAppendBytes int64
	walSyncs                   int64
	walSync                    []sim.Duration
	snapChunks, snapBytes      int64
	snapChunk                  []sim.Duration
	snapTimes                  []sim.Duration // BeginSnapshot → Commit return
	snapAborts                 int64
	recovers                   int64
}

// backendShim sits between the engine (imdb.Engine) and the persistence
// backend: core.Backend on slimio-fdp, baseline.Backend on baseline-f2fs.
// Host time is not taken here: a call that parks lets every other simulated
// process run before it returns, so host time around it is not this
// layer's own.
type backendShim struct {
	imdb.Backend
	c      backendCounters
	tr     *tracer
	faults *faults
	// onSnapshot runs after each successful BeginSnapshot (the runner uses
	// it to find each snapshot's submission ring).
	onSnapshot func()
}

func (b *backendShim) WALAppend(env *sim.Env, data wal.Chain) error {
	n := int64(data.Len())
	sp := b.tr.beginEnv(env, layerBackend, "wal_append", -1)
	err := b.Backend.WALAppend(env, data)
	b.tr.end(sp, env.Now())
	if err == nil {
		b.c.walAppends++
		b.c.walAppendBytes += n
	}
	return err
}

func (b *backendShim) WALSync(env *sim.Env) error {
	t0 := env.Now()
	sp := b.tr.beginEnv(env, layerBackend, "wal_sync", -1)
	if b.faults != nil && b.faults.walSyncDelay > 0 {
		env.Sleep(b.faults.walSyncDelay)
	}
	err := b.Backend.WALSync(env)
	b.tr.end(sp, env.Now())
	b.c.walSyncs++
	b.c.walSync = append(b.c.walSync, env.Now().Sub(t0))
	return err
}

func (b *backendShim) BeginSnapshot(env *sim.Env, kind imdb.SnapshotKind) (imdb.SnapshotSink, error) {
	t0 := env.Now()
	sp := b.tr.beginEnv(env, layerBackend, "begin_snapshot", -1)
	sink, err := b.Backend.BeginSnapshot(env, kind)
	b.tr.end(sp, env.Now())
	if err != nil {
		return nil, err
	}
	if b.onSnapshot != nil {
		b.onSnapshot()
	}
	return &sinkShim{SnapshotSink: sink, b: b, begun: t0}, nil
}

func (b *backendShim) Recover(env *sim.Env) (*imdb.Recovered, error) {
	sp := b.tr.beginEnv(env, layerBackend, "recover", -1)
	rec, err := b.Backend.Recover(env)
	b.tr.end(sp, env.Now())
	b.c.recovers++
	return rec, err
}

// sinkShim wraps one snapshot image's sink.
type sinkShim struct {
	imdb.SnapshotSink
	b     *backendShim
	begun sim.Time
}

func (s *sinkShim) Write(env *sim.Env, chunk []byte) error {
	t0 := env.Now()
	sp := s.b.tr.beginEnv(env, layerSink, "write", -1)
	err := s.SnapshotSink.Write(env, chunk)
	s.b.tr.end(sp, env.Now())
	c := &s.b.c
	c.snapChunks++
	c.snapBytes += int64(len(chunk))
	c.snapChunk = append(c.snapChunk, env.Now().Sub(t0))
	return err
}

func (s *sinkShim) Commit(env *sim.Env) error {
	sp := s.b.tr.beginEnv(env, layerSink, "commit", -1)
	err := s.SnapshotSink.Commit(env)
	s.b.tr.end(sp, env.Now())
	if err == nil {
		s.b.c.snapTimes = append(s.b.c.snapTimes, env.Now().Sub(s.begun))
	}
	return err
}

func (s *sinkShim) Abort(env *sim.Env) error {
	s.b.c.snapAborts++
	return s.SnapshotSink.Abort(env)
}
