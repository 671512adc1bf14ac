package main

import "github.com/slimio/slimio/internal/imdb"

// Scale of every workload: the parameters exp.SmallScale gives the
// experiment harness (~1/500 of the paper). They are written out here, not
// read from exp, so a change to the harness cannot silently change the
// benchmark; TestStackMatchesExpBuildStack catches any drift.
const (
	deviceBytes     = 320 << 20
	keyRange        = 10_000
	walTriggerBytes = 120 << 20
	slotBytes       = 28 << 20
	keySize         = 8
	valuePoolSize   = 64
)

type stackKind int

const (
	slimioFDP    stackKind = iota // core + uring passthru on an FDP SSD
	baselineF2FS                  // kernelio (f2fs profile) + baseline on a conventional SSD
)

func (k stackKind) String() string {
	if k == baselineF2FS {
		return "baseline-f2fs"
	}
	return "slimio-fdp"
}

// workload is one set of inputs and the stack it runs on. README.md gives
// the reason for each choice.
type workload struct {
	name   string
	kind   stackKind
	policy imdb.LogPolicy

	clients   int
	keys      int
	opsPerRep int
	reps      int
	readRatio float64
	zipfTheta float64 // 0 = uniform keys
	valueSize int
	// distinctValues gives every SET its own payload; otherwise SETs draw
	// from a pool of valuePoolSize payloads, as redis-benchmark repeats one.
	distinctValues bool
	preload        bool // YCSB load phase, part of set-up
	onDemandPerRep bool // On-Demand snapshot after each repetition
	dropCaches     bool // recover with a cold page cache
}

var workloads = []*workload{
	{
		name: "redis-snap", kind: slimioFDP, policy: imdb.PeriodicalLog,
		clients: 50, keys: keyRange, opsPerRep: 55_000, reps: 2,
		valueSize: 4096, onDemandPerRep: true,
	},
	{
		name: "ycsb-always", kind: slimioFDP, policy: imdb.AlwaysLog,
		clients: 8, keys: keyRange, opsPerRep: 200_000, reps: 1,
		readRatio: 0.5, zipfTheta: 0.99, valueSize: 2048,
		distinctValues: true, preload: true,
	},
	{
		name: "redis-snap-f2fs", kind: baselineF2FS, policy: imdb.PeriodicalLog,
		clients: 50, keys: keyRange, opsPerRep: 55_000, reps: 2,
		valueSize: 4096, onDemandPerRep: true, dropCaches: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
