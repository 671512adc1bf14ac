package main

import (
	"bytes"
	"io"
	"sort"
	"time"

	"github.com/slimio/slimio/internal/snapshot"
	"github.com/slimio/slimio/internal/wal"
)

// codecRepeats is how many times each codec timing is repeated; the median
// is reported.
const codecRepeats = 5

// codecTimes holds host ns per KiB of raw input for the snapshot and WAL
// codecs, timed directly on a run's own data.
type codecTimes struct {
	snapEncode, snapDecode float64
	walEncode, walDecode   float64
}

func medianTime(f func()) float64 {
	ts := make([]float64, codecRepeats)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(ts)
	return ts[len(ts)/2]
}

// timeCodecs encodes and decodes the run's final dataset with the snapshot
// codec and its acknowledged SETs with the WAL codec.
func timeCodecs(in *inputs, r *round) (codecTimes, error) {
	var ct codecTimes
	keys := make([][]byte, len(in.keys))
	for k, key := range in.keys {
		keys[k] = []byte(key)
	}
	var image bytes.Buffer
	var raw int64
	encode := func() error {
		image.Reset()
		w, err := snapshot.NewWriter(0, func(chunk []byte, _ int) error {
			_, err := image.Write(chunk)
			return err
		})
		if err != nil {
			return err
		}
		for k, v := range r.final {
			if v >= 0 {
				if err := w.Add(keys[k], in.values[v]); err != nil {
					return err
				}
			}
		}
		raw = w.RawBytes()
		return w.Close()
	}
	var err error
	ct.snapEncode = medianTime(func() {
		if e := encode(); e != nil {
			err = e
		}
	})
	if err != nil {
		return ct, err
	}
	ct.snapDecode = medianTime(func() {
		rd := snapshot.NewReader(bytes.NewReader(image.Bytes()))
		for {
			if _, e := rd.Next(); e != nil {
				if e != io.EOF {
					err = e
				}
				return
			}
		}
	})
	if err != nil {
		return ct, err
	}
	kib := float64(raw) / 1024
	ct.snapEncode /= kib
	ct.snapDecode /= kib

	var size int
	for _, kv := range r.log {
		size += wal.EncodedSize(keys[kv[0]], in.values[kv[1]])
	}
	buf := make([]byte, 0, size)
	ct.walEncode = medianTime(func() {
		buf = buf[:0]
		for _, kv := range r.log {
			buf = wal.AppendRecord(buf, wal.OpSet, keys[kv[0]], in.values[kv[1]])
		}
	})
	ct.walDecode = medianTime(func() { wal.DecodeAll(buf) })
	kib = float64(len(buf)) / 1024
	ct.walEncode /= kib
	ct.walDecode /= kib
	return ct, nil
}
