package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/uring"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// layerCounts reads the cumulative counters each layer keeps. The runner
// subtracts a reading taken at the start of the measured phase.
func layerCounts(st *stack, snapRings []*uring.Ring) map[string]int64 {
	m := map[string]int64{}
	ns := st.arr.Stats()
	m["nand.programs"] = ns.Programs
	m["nand.erases"] = ns.Erases
	fs := st.fdp.Stats()
	m["fdp.gc_runs"] = fs.GCRuns
	m["fdp.gc_copied_pages"] = fs.GCCopiedPages
	m["fdp.rus_reclaimed_empty"] = fs.RUsReclaimedEmpty
	m["fdp.gc_busy_ns"] = int64(fs.GCBusy)
	if st.slim != nil {
		cs := st.slim.Stats()
		m["core.wal_page_writes"] = cs.WALPageWrites
		m["core.wal_tail_rewrites"] = cs.WALTailRewrites
		m["core.snap_page_writes"] = cs.SnapshotPageWrites
		rings := append([]*uring.Ring{st.slim.WALRing()}, snapRings...)
		for _, r := range rings {
			rs := r.Stats()
			m["uring.submitted"] += rs.Submitted
			m["uring.sqpoll_wakes"] += rs.SQPollWakes
		}
	}
	if st.fs != nil {
		ks := st.fs.Stats()
		m["kernelio.syscalls"] = ks.Syscalls
		m["kernelio.commits"] = ks.Commits
		m["kernelio.writeback_pages"] = ks.WritebackPages
		m["kernelio.throttle_ns"] = int64(ks.ThrottleTime)
		m["kernelio.journal_wait_ns"] = int64(ks.JournalLockWait)
		m["kernelio.cache_hits"] = ks.CacheHits
		m["kernelio.cache_misses"] = ks.CacheMisses
	}
	return m
}

// quantile is the exact nearest-rank q-quantile of samples.
func quantile(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
func ms(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

const mib = 1 << 20

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2e derives the end-to-end metrics measured in simulated time.
func (v *virtual) e2e() []metric {
	var snapTotal sim.Duration
	for _, d := range v.backend.snapTimes {
		snapTotal += d
	}
	out := []metric{
		{"vrps", "1/s", ratio(float64(v.ops), v.lastReply.Sub(v.firstReq).Seconds())},
		{"set_p50_us", "us", us(quantile(v.setLat, 0.5))},
		{"set_p999_us", "us", us(quantile(v.setLat, 0.999))},
		{"set_samples", "count", float64(len(v.setLat))},
	}
	if len(v.getLat) > 0 {
		out = append(out,
			metric{"get_p999_us", "us", us(quantile(v.getLat, 0.999))},
			metric{"get_samples", "count", float64(len(v.getLat))})
	}
	return append(out,
		metric{"snap_ms", "ms", ratio(ms(snapTotal), float64(len(v.backend.snapTimes)))},
		metric{"recover_ms", "ms", ms(v.recover)},
		metric{"waf", "ratio", ratio(float64(v.layers["nand.programs"]), float64(v.ftl.writes))},
	)
}

// perLayer derives the per-layer metrics measured in simulated time and
// counts. They are deterministic for a given workload and seed.
func (v *virtual) perLayer(in *inputs) []metric {
	l := v.layers
	b := &v.backend
	f := &v.ftl
	hits := float64(l["kernelio.cache_hits"])
	return []metric{
		{"backend.wal_appends", "count", float64(b.walAppends)},
		{"backend.wal_append_kb", "KiB", float64(b.walAppendBytes) / 1024},
		{"backend.wal_sync_p50_us", "us", us(quantile(b.walSync, 0.5))},
		{"backend.wal_sync_p999_us", "us", us(quantile(b.walSync, 0.999))},
		{"backend.snap_write_mb", "MiB", float64(b.snapBytes) / mib},
		{"backend.snap_chunk_p999_us", "us", us(quantile(b.snapChunk, 0.999))},
		{"snapshot.raw_mb", "MiB", float64(v.snapRaw) / mib},
		{"snapshot.ratio", "ratio", ratio(float64(v.snapComp), float64(v.snapRaw))},
		{"input.value_reuse", "ratio", ratio(float64(in.reused), float64(in.sets))},
		{"imdb.wal_stalls", "count", float64(v.engine.WALStalls)},
		{"imdb.cow_copies", "count", float64(v.engine.COWCopies)},
		{"imdb.fork_stall_us", "us", us(v.engine.ForkStall)},
		{"imdb.peak_mem_mb", "MiB", float64(v.engine.PeakMemory) / mib},
		{"core.wal_page_writes", "count", float64(l["core.wal_page_writes"])},
		{"core.wal_tail_rewrites", "count", float64(l["core.wal_tail_rewrites"])},
		{"core.snap_page_writes", "count", float64(l["core.snap_page_writes"])},
		{"uring.submitted", "count", float64(l["uring.submitted"])},
		{"uring.sqpoll_wakes", "count", float64(l["uring.sqpoll_wakes"])},
		{"kernelio.syscalls", "count", float64(l["kernelio.syscalls"])},
		{"kernelio.commits", "count", float64(l["kernelio.commits"])},
		{"kernelio.writeback_pages", "count", float64(l["kernelio.writeback_pages"])},
		{"kernelio.throttle_ms", "ms", ms(sim.Duration(l["kernelio.throttle_ns"]))},
		{"kernelio.journal_wait_ms", "ms", ms(sim.Duration(l["kernelio.journal_wait_ns"]))},
		{"kernelio.cache_hit_rate", "ratio", ratio(hits, hits+float64(l["kernelio.cache_misses"]))},
		{"ftl.host_writes", "count", float64(f.writes)},
		{"ftl.host_reads", "count", float64(f.reads)},
		{"ftl.write_svc_p50_us", "us", us(quantile(f.writeSvc, 0.5))},
		{"ftl.write_svc_p999_us", "us", us(quantile(f.writeSvc, 0.999))},
		{"ftl.host_kb_per_user_kb", "ratio", ratio(float64(f.writeBytes), float64(v.userBytes))},
		{"fdp.gc_runs", "count", float64(l["fdp.gc_runs"])},
		{"fdp.gc_copied_pages", "count", float64(l["fdp.gc_copied_pages"])},
		{"fdp.rus_reclaimed_empty", "count", float64(l["fdp.rus_reclaimed_empty"])},
		{"fdp.gc_busy_ms", "ms", ms(sim.Duration(l["fdp.gc_busy_ns"]))},
		{"nand.programs", "count", float64(l["nand.programs"])},
		{"nand.erases", "count", float64(l["nand.erases"])},
	}
}

// digest hashes every virtual metric, count and latency sample of a round.
func (v *virtual) digest() string {
	h := sha256.New()
	put := func(x int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	putAll := func(ds []sim.Duration) {
		put(int64(len(ds)))
		for _, d := range ds {
			put(int64(d))
		}
	}
	put(v.ops)
	put(int64(v.firstReq))
	put(int64(v.lastReply))
	put(int64(v.recover))
	put(v.userBytes)
	putAll(v.setLat)
	putAll(v.getLat)
	e := &v.engine
	for _, x := range []int64{e.Gets, e.Sets, e.Dels, e.WALFlushes, e.WALSyncs, e.WALStalls, e.WALBytes,
		e.COWCopies, int64(e.COWStall), int64(e.ForkStall), e.PeakMemory, e.BaseMemory, e.SnapshotsAbort} {
		put(x)
	}
	for _, ev := range e.Snapshots {
		for _, x := range []int64{int64(ev.Kind), int64(ev.Start), int64(ev.End), ev.RawBytes, ev.CompressedBytes,
			ev.Entries, ev.COWCopiedPages} {
			put(x)
		}
	}
	b := &v.backend
	for _, x := range []int64{b.walAppends, b.walAppendBytes, b.walSyncs, b.snapChunks, b.snapBytes, b.snapAborts, b.recovers} {
		put(x)
	}
	putAll(b.walSync)
	putAll(b.snapChunk)
	putAll(b.snapTimes)
	put(v.ftl.writes)
	put(v.ftl.reads)
	put(v.ftl.deallocs)
	put(v.ftl.writeBytes)
	putAll(v.ftl.writeSvc)
	keys := make([]string, 0, len(v.layers))
	for k := range v.layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		put(v.layers[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
