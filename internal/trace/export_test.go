package trace

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// Float64Redraw exposes float64Redraw.
const Float64Redraw = float64Redraw

// ZipfReplica is the generator's Zipf sampler over its own seeded stream,
// for the oracle tests in package trace_test.
type ZipfReplica struct {
	r rng
	z zipf
}

// NewZipfReplica replays rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, imax).
func NewZipfReplica(seed int64, s float64, imax uint64) *ZipfReplica {
	zr := &ZipfReplica{z: newZipf(s, 1, imax)}
	zr.r.seed(seed)
	return zr
}

// Uint64 is the replica's rand.(*Zipf).Uint64.
func (zr *ZipfReplica) Uint64() uint64 { return zr.z.next(&zr.r) }

// Boundaries lists the table's cell starts below float64Redraw.
func (zr *ZipfReplica) Boundaries() []int64 {
	var out []int64
	for _, v := range zr.z.starts[1:] {
		if v < float64Redraw {
			out = append(out, v)
		}
	}
	return out
}

// Scripted draws one variate from a stream that starts with script (at
// most rngTap values) and returns it with the number of values consumed.
// With the ring zeroed beyond the script, output n < rngTap is
// buf[n] + buf[n+334] = buf[n], and stepping writes buf[n] back unchanged.
func (zr *ZipfReplica) Scripted(script []uint64) (uint64, int) {
	r := scriptedRNG(script)
	k := zr.z.next(r)
	return k, int(r.pos)
}

// scriptedRNG returns an rng whose next outputs are script (at most rngTap
// values); see Scripted.
func scriptedRNG(script []uint64) *rng {
	if len(script) > rngTap {
		panic("scriptedRNG: script longer than rngTap")
	}
	r := new(rng)
	copy(r.buf[:], script)
	return r
}
