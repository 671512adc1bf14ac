package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers are the layers a CPU sample can be attributed to, in report
// order. "bench" is this benchmark's own clients and shims; "runtime" takes
// samples with no repo frame at all (garbage collection, scheduler);
// "other" takes repo packages outside the measured stack.
var hostLayers = []string{
	"snapshot", "sim", "imdb", "wal", "core", "uring", "kernelio", "baseline",
	"ssd", "fdp", "nand", "bufpool", "metrics", "bench", "runtime", "other",
}

const modulePath = "github.com/slimio/slimio/"

// layerOf maps a function name to its repo layer, or "" for a frame outside
// the repo (standard library, runtime).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench" // this package is the only main in the binary
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range hostLayers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// attribute decodes a gzipped pprof CPU profile and adds each sample's CPU
// time to the innermost frame that lies in a repo package: a standard
// library frame such as compress/flate counts for its nearest repo caller,
// and a sample with no repo frame counts for "runtime".
func attribute(prof []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	// Field numbers below are those of profile.proto.
	var (
		strs     []string
		typeIdx  []uint64                // sample_type[i].type
		funcName = map[uint64]uint64{}   // function id → name
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		samples  [][]byte
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valIdx := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return errors.New("profile has no cpu sample type")
	}
	for _, sb := range samples {
		var locs, vals []uint64
		// location_id (1) and value (2) are repeated varints, packed or not.
		err := fields(sb, func(n int, v uint64, b []byte) error {
			dst := &locs
			if n == 2 {
				dst = &vals
			} else if n != 1 {
				return nil
			}
			if b == nil {
				*dst = append(*dst, v)
				return nil
			}
			for len(b) > 0 {
				x, k := uvarint(b)
				if k <= 0 {
					return errors.New("bad packed varint")
				}
				*dst = append(*dst, x)
				b = b[k:]
			}
			return nil
		})
		if err != nil {
			return err
		}
		if valIdx >= len(vals) {
			return fmt.Errorf("sample has %d values, want more than %d", len(vals), valIdx)
		}
		layer := "runtime"
	frames:
		for _, loc := range locs { // leaf first
			for _, fid := range locFuncs[loc] {
				if l := layerOf(str(funcName[fid])); l != "" {
					layer = l
					break frames
				}
			}
		}
		into[layer] += int64(vals[valIdx])
	}
	return nil
}

// fields walks the protobuf fields of msg, calling fn with each field
// number and either its varint value (b == nil) or its length-delimited
// bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var err error
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
			err = fn(num, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			err = fn(num, 0, b) // b is non-nil even when empty
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
