package tracestore

import (
	"bytes"
	"io"
	"testing"

	"morrigan/internal/trace"
)

// FuzzChunkReader holds the package's decode-safety property: arbitrary
// bytes fed to the container parser and chunk decoder must produce an error
// or a valid stream — never a panic, unbounded allocation, or hang. Seeds
// are round-trip containers of several geometries plus their truncations,
// so the fuzzer starts inside the format.
func FuzzChunkReader(f *testing.F) {
	recs := genRecords(f, 1500)
	for _, geometry := range []struct{ n, chunk int }{
		{0, 64},    // empty container
		{50, 64},   // single short chunk
		{1500, 64}, // many chunks, short tail
		{512, 256}, // exact multiple
	} {
		var buf bytes.Buffer
		if _, err := Build(&buf, &trace.SliceReader{Records: recs[:geometry.n]}, uint64(geometry.n), BuildOptions{ChunkRecords: geometry.chunk}); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:headerSize])
	}
	f.Add([]byte("MTC1"))
	f.Add([]byte{})
	// One flipped frame bit: the index is intact, the frame CRC is not.
	flipped := buildContainer(f, recs[:200], 64)
	flipped[headerSize+1] ^= 1
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenBytes(data)
		if err != nil {
			return
		}
		// Bound the work per input: a well-formed giant index would
		// otherwise make the fuzzer decode for seconds.
		if c.Records() > 1<<20 {
			return
		}
		r := c.NewReader()
		defer r.Close()
		var rec trace.Record
		n := uint64(0)
		for {
			err := r.Next(&rec)
			if err == io.EOF {
				if n != c.Records() {
					t.Fatalf("stream ended after %d records, index says %d", n, c.Records())
				}
				return
			}
			if err != nil {
				return // corrupt input detected mid-stream: fine
			}
			n++
			if n > c.Records() {
				t.Fatalf("stream produced more records than the index declares")
			}
		}
	})
}
