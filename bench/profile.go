package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf profiles that
// `moonbench -cpuprofile/-memprofile` writes (runtime/pprof's format). The
// standard library keeps its own reader internal, and shelling out to
// `go tool pprof` would put a text format between the numbers and us, so
// the few fields needed are decoded here: sample types, samples with their
// location ids and values, locations with their lines, functions with
// their names, and the string table.

type profSample struct {
	stack  []string // function names, innermost first
	values []int64
}

type profile struct {
	sampleTypes []string // e.g. "samples", "cpu" or "alloc_space"
	samples     []profSample
}

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint too long")
}

// field reads one field header and its payload: val for varints, data for
// length-delimited fields. Fixed-width fields are skipped.
func (p *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			err = io.ErrUnexpectedEOF
			break
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

func (p *pbuf) skip(n int) error {
	if n > len(p.b) {
		return io.ErrUnexpectedEOF
	}
	p.b = p.b[n:]
	return nil
}

// repeatedInts decodes a repeated integer field that may arrive packed
// (data) or one value at a time (val).
func repeatedInts(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	prof, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prof, nil
}

// each calls f for every field of the protobuf message msg.
func each(msg []byte, f func(num int, val uint64, data []byte) error) error {
	p := pbuf{msg}
	for len(p.b) > 0 {
		num, val, data, err := p.field()
		if err == nil {
			err = f(num, val, data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseProfile(data []byte) (*profile, error) {
	type rawSample struct{ locs, values []uint64 }
	var (
		typeIdx   []uint64
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
		strs      []string
	)
	err := each(data, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return each(msg, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: Sample{location_id=1, value=2}
			var s rawSample
			err := each(msg, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = repeatedInts(s.locs, v, d)
				case 2:
					s.values, err = repeatedInts(s.values, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var fns []uint64
			err := each(msg, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return each(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			err := each(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := &profile{}
	for _, i := range typeIdx {
		out.sampleTypes = append(out.sampleTypes, str(i))
	}
	for _, s := range samples {
		ps := profSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out.samples = append(out.samples, ps)
	}
	return out, nil
}

// valueIndex finds the sample value column called name (-1 if absent).
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// total sums one value column over all samples.
func (p *profile) total(name string) int64 {
	idx := p.valueIndex(name)
	if idx < 0 {
		return 0
	}
	var sum int64
	for _, s := range p.samples {
		if idx < len(s.values) {
			sum += s.values[idx]
		}
	}
	return sum
}

const (
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.sweepone", "runtime.(*mspan).sweep",
}

const internalPrefix = "repro/internal/"

// stackLayer charges one stack (innermost frame first) to a layer: the
// collector if any frame is GC work, else the package of the innermost
// repro/internal/<pkg> frame, else "other" (runtime, syscalls, cmd/).
func stackLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return layerGC
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return layerOther
}

// addCPUByLayer adds the profile's CPU nanoseconds per layer into acc.
func addCPUByLayer(acc map[string]float64, p *profile) {
	idx := p.valueIndex("cpu")
	if idx < 0 {
		return
	}
	for _, s := range p.samples {
		if idx < len(s.values) {
			acc[stackLayer(s.stack)] += float64(s.values[idx])
		}
	}
}
