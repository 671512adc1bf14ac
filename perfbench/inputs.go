package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// request is one generated client command. Values are referenced by index
// into inputs.values so a GET reply or a recovered value can be traced back
// to the SET that wrote it.
type request struct {
	id    int32 // global request id, unique across clients
	get   bool
	key   int32 // index into inputs.keys
	value int32 // index into inputs.values (SETs only)
}

// inputs is everything a workload sends, generated from the seed before any
// timing starts. The program under test receives only these keys and values.
type inputs struct {
	keys   []string
	values [][]byte
	// valueKey[v] is the key distinct value v is written under (nil for
	// pooled values).
	valueKey []int32
	// preload[k] is the value index loaded into key k before the measured
	// phase, or -1 when the workload has no load phase.
	preload []int32
	// reps[r][c] is client c's request sequence in repetition r.
	reps [][][]request
	// sets counts SET requests; reused counts SETs whose payload repeats
	// one sent earlier (input.value_reuse).
	sets, reused int64
}

// generate builds a workload's inputs from seed. The same seed always gives
// the same inputs.
func generate(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{keys: make([]string, w.keys)}
	for k := range in.keys {
		in.keys[k] = fmt.Sprintf("%0*d", keySize, k)
	}
	half := func(v []byte) { rng.Read(v[:len(v)/2]) } // half-compressible
	if !w.distinctValues {
		// redis-benchmark sends one payload; a 64-entry pool keeps the
		// repetition while still giving the compressor varied input.
		for i := 0; i < valuePoolSize; i++ {
			v := make([]byte, w.valueSize)
			half(v)
			in.values = append(in.values, v)
		}
	}
	// newValue returns the index of a fresh distinct payload. Its first
	// eight bytes carry the index, so no two payloads are equal.
	newValue := func(key int32) int32 {
		v := make([]byte, w.valueSize)
		half(v)
		binary.LittleEndian.PutUint64(v, uint64(len(in.values)))
		in.values = append(in.values, v)
		in.valueKey = append(in.valueKey, key)
		return int32(len(in.values) - 1)
	}
	if w.preload {
		in.preload = make([]int32, w.keys)
		for k := range in.preload {
			in.preload[k] = newValue(int32(k))
		}
	}
	var zipf *zipfGen
	if w.zipfTheta > 0 {
		zipf = newZipf(rng, uint64(w.keys), w.zipfTheta)
	}
	seen := make([]bool, len(in.values))
	var id int32
	for r := 0; r < w.reps; r++ {
		rep := make([][]request, w.clients)
		for c := range rep {
			n := w.opsPerRep / w.clients
			if c < w.opsPerRep%w.clients {
				n++
			}
			rep[c] = make([]request, n)
		}
		// Draw requests round-robin across clients so the key sequence
		// does not depend on the client count split.
		for i := 0; i < w.opsPerRep; i++ {
			c := i % w.clients
			req := request{id: id}
			id++
			if zipf != nil {
				req.key = int32(zipf.next())
			} else {
				req.key = int32(rng.Intn(w.keys))
			}
			req.get = w.readRatio > 0 && rng.Float64() < w.readRatio
			if !req.get {
				if w.distinctValues {
					req.value = newValue(req.key)
					seen = append(seen, false)
				} else {
					req.value = int32(rng.Intn(len(in.values)))
				}
				in.sets++
				if seen[req.value] {
					in.reused++
				}
				seen[req.value] = true
			}
			rep[c][i/w.clients] = req
		}
		in.reps = append(in.reps, rep)
	}
	return in
}

// zipfGen draws ranks in [0, items) with YCSB's zipfian generator (Gray et
// al., "Quickly generating billion-record synthetic databases"). Rank 0 is
// the hottest key.
type zipfGen struct {
	rng                      *rand.Rand
	items                    float64
	alpha, zetan, eta, theta float64
}

func newZipf(rng *rand.Rand, items uint64, theta float64) *zipfGen {
	zeta := func(n uint64) float64 {
		var z float64
		for i := uint64(1); i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	zetan := zeta(items)
	return &zipfGen{
		rng:   rng,
		items: float64(items),
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(items), 1-theta)) / (1 - zeta(2)/zetan),
		theta: theta,
	}
}

func (z *zipfGen) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(z.items * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.items) {
		r = uint64(z.items) - 1
	}
	return r
}
