package explore

import (
	"reflect"
	"testing"

	"armbar/internal/sim"
)

// FuzzPackRoundTrip pins the two state representations against each
// other: packing a flat frame, unpacking the words and packing again
// must give the same words. The input names a shape: a non-negative
// index is the generated corpus shape GenOne(seed, index), a negative
// one the fixed suite's shape ^index (the seed corpus adds MP and
// chan). Each shape is explored at its empty and naive placements
// under both modes; every frame the first 64 expansions pop, and every
// frame left on the worklist after them, must round-trip.
func FuzzPackRoundTrip(f *testing.F) {
	all := All()
	for i, s := range all {
		if s.Name == "MP" || s.Name == "chan" {
			f.Add(int64(0), ^i)
		}
	}
	f.Add(int64(42), 0)
	f.Add(int64(7), 6)
	f.Fuzz(func(t *testing.T, seed int64, index int) {
		var s *Shape
		if index < 0 {
			s = all[^index%len(all)]
		} else {
			s = GenOne(seed, index).S
		}
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			for _, pl := range []Placement{0, Naive(s)} {
				x := newFastExplorer(s, pl, mode == sim.TSO, DefaultBound, false, nil)
				ws := make([]uint64, x.lay.words)
				st := make([]byte, x.lay.stride)
				ws2 := make([]uint64, x.lay.words)
				roundTrip := func(frame []byte) {
					x.lay.pack(frame, ws)
					x.lay.unpack(ws, st)
					x.lay.pack(st, ws2)
					if !reflect.DeepEqual(ws, ws2) {
						t.Fatalf("%s%s under %v: pack/unpack not a round trip for frame %v: %x vs %x",
							s.Name, pl.Describe(s), mode, frame, ws, ws2)
					}
				}
				x.pushInit()
				w := x.lay.stride
				for i := 0; i < 64 && len(x.stack) > 0; i++ {
					roundTrip(x.stack[len(x.stack)-w:])
					x.expandOne()
				}
				for f := 0; f < len(x.stack)/w; f++ {
					roundTrip(x.stack[f*w : (f+1)*w])
				}
			}
		}
	})
}
