package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileAcc accumulates CPU-profile samples of several runs, each charged
// to the layer that caused it: the innermost cloudrepl/internal/<module>
// frame on the sample's stack. Runtime and allocation work done on behalf
// of a layer (a mark assist, a map grow) is billed to that layer; samples
// with no module frame go to "gc" (background GC workers), "bench" (this
// program) or "runtime".
type profileAcc struct {
	buf     bytes.Buffer
	total   int64
	byLayer map[string]int64
}

func newProfileAcc() *profileAcc { return &profileAcc{byLayer: make(map[string]int64)} }

func (a *profileAcc) start() error {
	a.buf.Reset()
	return pprof.StartCPUProfile(&a.buf)
}

func (a *profileAcc) stop() error {
	pprof.StopCPUProfile()
	return a.add(a.buf.Bytes())
}

// share returns the fraction of all samples charged to layer.
func (a *profileAcc) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.byLayer[layer]) / float64(a.total)
}

const modulePrefix = "cloudrepl/internal/"

// sqlengine sub-layers, named by the public entry point on the stack. A
// replicated statement re-parses and re-plans inside ExecUncached, so the
// apply share holds all of a replica's statement work.
var sqlEntries = []struct{ fn, sub string }{
	{"sqlengine.Parse", "parse"},
	{"sqlengine.(*Engine).Prepare", "parse"},
	{"sqlengine.(*Engine).buildPlanLocked", "plan"},
	{"sqlengine.(*Statement).Run", "exec"},
	{"sqlengine.(*Session).ExecStmt", "exec"},
}

const applyEntry = modulePrefix + "sqlengine.(*Session).ExecUncached"

// classify returns the layer (and for sqlengine the sub-layer) of one
// stack, given leaf first.
func classify(stack []string) (layer, sub string) {
	for _, fn := range stack {
		if strings.HasPrefix(fn, modulePrefix) {
			layer = fn[len(modulePrefix):]
			layer = layer[:strings.IndexAny(layer, "./")]
			break
		}
	}
	if layer == "" {
		for _, fn := range stack {
			switch {
			case strings.HasPrefix(fn, "main."):
				return "bench", ""
			case fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge":
				return "gc", ""
			}
		}
		return "runtime", ""
	}
	if layer != "sqlengine" {
		return layer, ""
	}
	for _, fn := range stack {
		if fn == applyEntry {
			return layer, "apply"
		}
	}
	for _, fn := range stack {
		for _, e := range sqlEntries {
			if fn == modulePrefix+e.fn {
				return layer, e.sub
			}
		}
	}
	return layer, "other"
}

// add decodes one gzipped profile.proto and accumulates its samples.
func (a *profileAcc) add(gz []byte) error {
	p, err := decodeGzipProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, smp := range p.samples {
		var stack []string
		for _, id := range smp.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		layer, sub := classify(stack)
		a.total += smp.count
		a.byLayer[layer] += smp.count
		if sub != "" {
			a.byLayer[layer+"."+sub] += smp.count
		}
	}
	return nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

func decodeGzipProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	return decodeProfile(raw)
}

// decodeProfile reads the Profile message: sample = 2, location = 4,
// function = 5, string_table = 6.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, data)
				case 2:
					return appendVarints(&values, wire, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	//cloudrepl:allow-maporder a pure check: any out-of-range entry fails the decode
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints adds a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varints arrive in v,
// length-delimited fields in data; fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
