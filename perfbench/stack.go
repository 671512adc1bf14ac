package main

import (
	"fmt"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
)

// stack is one assembled storage system below the engine.
type stack struct {
	arr  *nand.Array
	fdp  *fdp.FTL // the FDP FTL, or the one inside fdp.Conventional
	ftl  *ftlShim // nil when the stack was built without the FTL seam shim
	dev  *ssd.Device
	be   imdb.Backend
	slim *core.Backend        // slimio-fdp only
	fs   *kernelio.Filesystem // baseline-f2fs only
	base *baseline.Backend    // baseline-f2fs only
}

// buildStack assembles kind from the layer constructors with the
// parameters exp.BuildStack uses at small scale, inserting the FTL shim
// between the NVMe front-end and the FTL.
func buildStack(eng *sim.Engine, kind stackKind, tr *tracer, f *faults) (*stack, error) {
	geo := nand.DefaultGeometry(deviceBytes)
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		return nil, err
	}
	arr.SetClock(eng)
	st := &stack{arr: arr}
	switch kind {
	case slimioFDP:
		if st.fdp, err = fdp.New(arr, fdp.Config{}); err != nil {
			return nil, err
		}
		st.ftl = &ftlShim{FTL: st.fdp, tr: tr, faults: f}
		st.dev = ssd.New(st.ftl, ssd.Config{})
		st.slim, err = core.New(eng, st.dev, core.Config{SlotPages: slotBytes / int64(geo.PageSize)})
		if err != nil {
			return nil, err
		}
		st.be = st.slim
	case baselineF2FS:
		conv, err := fdp.NewConventional(arr, fdp.Config{})
		if err != nil {
			return nil, err
		}
		st.fdp = conv.FTL
		st.ftl = &ftlShim{FTL: conv, tr: tr, faults: f}
		st.dev = ssd.New(st.ftl, ssd.Config{})
		st.fs = kernelio.NewFilesystem(eng, st.dev, kernelio.F2FS(), kernelio.SchedNone, kernelio.DefaultCosts())
		if st.base, err = baseline.New(st.fs); err != nil {
			return nil, err
		}
		st.be = st.base
	default:
		return nil, fmt.Errorf("unknown stack kind %d", kind)
	}
	return st, nil
}

// close releases every pooled segment the stack holds: the SlimIO rings and
// tail buffers, the kernel page cache and staged block requests, and the
// NAND array's stored pages. Afterwards the pool's in-flight count is the
// number of segments leaked by the layers above.
func (st *stack) close() {
	if st.slim != nil {
		st.slim.Close()
	}
	if st.base != nil {
		st.base.Close()
	}
	if st.fs != nil {
		st.fs.Close()
	}
	st.arr.ReleaseStored()
}
