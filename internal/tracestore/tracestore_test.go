package tracestore

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// genRecords draws n deterministic records from a real workload generator so
// containers carry realistic delta/address distributions.
func genRecords(t testing.TB, n int) []trace.Record {
	t.Helper()
	recs, err := trace.Slice(workloads.QMM()[0].NewReader(), n)
	if err != nil {
		t.Fatalf("generating %d records: %v", n, err)
	}
	if len(recs) != n {
		t.Fatalf("generated %d records, want %d", len(recs), n)
	}
	return recs
}

// buildContainer materialises recs into an in-memory container.
func buildContainer(t testing.TB, recs []trace.Record, chunkRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	info, err := Build(&buf, &trace.SliceReader{Records: recs}, uint64(len(recs)), BuildOptions{ChunkRecords: chunkRecords})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if info.Records != uint64(len(recs)) {
		t.Fatalf("Build reported %d records, want %d", info.Records, len(recs))
	}
	return buf.Bytes()
}

// TestBuildRoundTrip checks that a container whose record count does not
// divide the chunk size (short last chunk) replays bit-identically through
// both the record-at-a-time and batch read paths.
func TestBuildRoundTrip(t *testing.T) {
	const chunk = 1024
	recs := genRecords(t, 3*chunk+500)
	data := buildContainer(t, recs, chunk)

	c, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if c.Records() != uint64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", c.Records(), len(recs))
	}
	if c.Chunks() != 4 || c.ChunkRecords() != chunk {
		t.Fatalf("geometry = %d chunks of %d, want 4 of %d", c.Chunks(), c.ChunkRecords(), chunk)
	}
	if last := c.Chunk(3); last.Records != 500 {
		t.Fatalf("last chunk holds %d records, want 500", last.Records)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	r := c.NewReader()
	defer r.Close()
	var rec trace.Record
	for i := range recs {
		if err := r.Next(&rec); err != nil {
			t.Fatalf("Next at record %d: %v", i, err)
		}
		if rec != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, recs[i])
		}
	}
	if err := r.Next(&rec); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}

	br := c.NewReader()
	defer br.Close()
	got := make([]trace.Record, 0, len(recs))
	buf := make([]trace.Record, 700) // does not divide the chunk size either
	for {
		n, err := br.NextBatch(buf)
		if n > 0 && err != nil {
			t.Fatalf("NextBatch mixed %d records with error %v", n, err)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(recs) {
		t.Fatalf("batch path read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("batch record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestBuildEarlyEOF checks that a source shorter than the requested record
// count yields a correspondingly shorter (still valid) container.
func TestBuildEarlyEOF(t *testing.T) {
	recs := genRecords(t, 300)
	var buf bytes.Buffer
	info, err := Build(&buf, &trace.SliceReader{Records: recs}, 10_000, BuildOptions{ChunkRecords: 128})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if info.Records != 300 || info.Chunks != 3 {
		t.Fatalf("info = %d records in %d chunks, want 300 in 3", info.Records, info.Chunks)
	}
	c, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestBuildReadsInBatches: the build fills chunks through trace.Fill, and
// the container bytes do not depend on how the source delivers records —
// a BatchReader generator, a short-batch reader, or one record per Next.
func TestBuildReadsInBatches(t *testing.T) {
	const n, chunk = 5000, 1024
	build := func(src trace.Reader) []byte {
		var buf bytes.Buffer
		info, err := Build(&buf, src, n, BuildOptions{ChunkRecords: chunk})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if info.Records != n {
			t.Fatalf("Build reported %d records, want %d", info.Records, n)
		}
		return buf.Bytes()
	}
	gen := func() trace.Reader { return workloads.QMM()[0].NewReader() }
	if _, ok := gen().(trace.BatchReader); !ok {
		t.Fatal("the generator is not a BatchReader; the batched path goes untested")
	}
	want := build(gen())
	for name, src := range map[string]trace.Reader{
		"per-record":  perRecord{gen()},
		"short-batch": shortBatch{gen().(trace.BatchReader)},
	} {
		if got := build(src); !bytes.Equal(got, want) {
			t.Errorf("%s source: container differs from the batched build", name)
		}
	}
}

// TestBuildSourceError: a source failing part-way through a chunk fails the
// build with its error.
func TestBuildSourceError(t *testing.T) {
	boom := errors.New("boom")
	src := &failAfter{r: perRecord{workloads.QMM()[0].NewReader()}, left: 300, err: boom}
	var buf bytes.Buffer
	if _, err := Build(&buf, src, 10_000, BuildOptions{ChunkRecords: 128}); !errors.Is(err, boom) {
		t.Fatalf("Build error = %v, want %v", err, boom)
	}
	if src.left != 0 {
		t.Fatalf("build stopped %d records before the failure", src.left)
	}
}

// perRecord hides a reader's bulk interface.
type perRecord struct{ r trace.Reader }

func (p perRecord) Next(rec *trace.Record) error { return p.r.Next(rec) }

// shortBatch delivers at most 7 records per NextBatch.
type shortBatch struct{ trace.BatchReader }

func (s shortBatch) NextBatch(dst []trace.Record) (int, error) {
	return s.BatchReader.NextBatch(dst[:min(len(dst), 7)])
}

// failAfter yields left records from r, then err.
type failAfter struct {
	r    trace.Reader
	left int
	err  error
}

func (f *failAfter) Next(rec *trace.Record) error {
	if f.left == 0 {
		return f.err
	}
	f.left--
	return f.r.Next(rec)
}

// TestBuildEmpty checks the zero-record container round-trips.
func TestBuildEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Build(&buf, &trace.SliceReader{}, 0, BuildOptions{ChunkRecords: 64}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	c, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	r := c.NewReader()
	defer r.Close()
	var rec trace.Record
	if err := r.Next(&rec); err != io.EOF {
		t.Fatalf("Next on empty corpus = %v, want io.EOF", err)
	}
}

// TestReaderClose checks that a closed reader stops producing records and
// that closing twice is harmless.
func TestReaderClose(t *testing.T) {
	recs := genRecords(t, 2000)
	c, err := OpenBytes(buildContainer(t, recs, 256))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	r := c.NewReader()
	var rec trace.Record
	for i := 0; i < 10; i++ {
		if err := r.Next(&rec); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Next(&rec); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestLimitPreservesBatching checks trace.Limit keeps the corpus reader's
// batch path and cuts the stream at exactly n records.
func TestLimitPreservesBatching(t *testing.T) {
	recs := genRecords(t, 1000)
	c, err := OpenBytes(buildContainer(t, recs, 256))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	r := c.NewReader()
	defer r.Close()
	limited := trace.Limit(r, 600)
	br, ok := limited.(trace.BatchReader)
	if !ok {
		t.Fatalf("Limit dropped the BatchReader interface")
	}
	got := 0
	buf := make([]trace.Record, 128)
	for {
		n, err := br.NextBatch(buf)
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
	}
	if got != 600 {
		t.Fatalf("limited batch read %d records, want 600", got)
	}
}

// TestCorruptContainer checks targeted corruptions fail with ErrCorrupt at
// open, verify, or read time — never a panic.
func TestCorruptContainer(t *testing.T) {
	recs := genRecords(t, 700)
	data := buildContainer(t, recs, 256)

	mustFailOpen := func(name string, mutate func([]byte)) {
		t.Helper()
		cp := append([]byte(nil), data...)
		mutate(cp)
		if _, err := OpenBytes(cp); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: OpenBytes error = %v, want ErrCorrupt", name, err)
		}
	}
	mustFailOpen("header magic", func(b []byte) { b[0] ^= 0xff })
	mustFailOpen("version", func(b []byte) { b[4] = 99 })
	mustFailOpen("codec", func(b []byte) { b[5] = 7 })
	mustFailOpen("chunk size zero", func(b []byte) { b[6], b[7], b[8], b[9] = 0, 0, 0, 0 })
	mustFailOpen("tail magic", func(b []byte) { b[len(b)-1] ^= 0xff })
	mustFailOpen("index crc", func(b []byte) { b[len(b)-8] ^= 0xff })
	mustFailOpen("total records", func(b []byte) { b[len(b)-16] ^= 0xff })

	// Every truncation must fail cleanly: either the tail is gone or the
	// index offset no longer matches the bytes.
	for cut := 1; cut <= len(data); cut += 97 {
		if _, err := OpenBytes(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes opened successfully", cut)
		}
	}

	// A damaged frame passes open (only the index is validated there) but
	// fails verification and reading.
	cp := append([]byte(nil), data...)
	for i := headerSize; i < headerSize+32; i++ {
		cp[i] = 0
	}
	c, err := OpenBytes(cp)
	if err != nil {
		t.Fatalf("OpenBytes with damaged frame: %v", err)
	}
	if err := c.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify error = %v, want ErrCorrupt", err)
	}
	if _, err := streamEnd(c); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read error = %v, want ErrCorrupt", err)
	}
}

// TestFrameBitFlipFailsRead flips bit 0 of each byte of frame 0 in turn. The
// container still opens, since only the index is checked at open, and
// streaming it must end in ErrCorrupt before io.EOF: a damaged frame must
// never read back as different records.
func TestFrameBitFlipFailsRead(t *testing.T) {
	data := buildContainer(t, genRecords(t, 700), 256)
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	frame := c.Chunk(0)
	undetected := 0
	for off := frame.Offset; off < frame.Offset+int64(frame.Bytes); off++ {
		cp := append([]byte(nil), data...)
		cp[off] ^= 1
		c, err := OpenBytes(cp)
		if err != nil {
			t.Fatalf("flip at byte %d: OpenBytes: %v", off, err)
		}
		if n, err := streamEnd(c); !errors.Is(err, ErrCorrupt) {
			undetected++
			t.Logf("flip at byte %d: read %d records, then %v", off, n, err)
		}
	}
	if undetected > 0 {
		t.Fatalf("%d of %d frame bit flips read without ErrCorrupt", undetected, frame.Bytes)
	}
}

// streamEnd reads c record by record and returns the count read and the
// error that ended the stream (io.EOF for a clean read).
func streamEnd(c *Corpus) (uint64, error) {
	r := c.NewReader()
	defer r.Close()
	var rec trace.Record
	for n := uint64(0); ; n++ {
		if err := r.Next(&rec); err != nil {
			return n, err
		}
		if n >= c.Records() {
			return n, errors.New("stream outran the index")
		}
	}
}
