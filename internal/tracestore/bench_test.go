package tracestore

import (
	"io"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// benchRecords is the stream length per benchmark iteration: enough chunks
// that the pipelined reader's steady state dominates setup.
const benchRecords = 1 << 19

// benchCorpus materialises the benchmark workload once per process, wired
// to a shared chunk cache the way a Store wires every corpus it opens. The
// first iteration decodes; steady state streams cache-resident chunks,
// which is the regime campaign jobs run in.
func benchCorpus(b *testing.B) *Corpus {
	b.Helper()
	if benchCorpusCached == nil {
		c, err := OpenBytes(buildContainer(b, benchGenRecords(b), DefaultChunkRecords>>2))
		if err != nil {
			b.Fatalf("OpenBytes: %v", err)
		}
		c.id = 1
		c.cache = NewCache(DefaultCacheBytes)
		benchCorpusCached = c
	}
	return benchCorpusCached
}

var (
	benchCorpusCached  *Corpus
	benchRecordsCached []trace.Record
)

func benchGenRecords(b *testing.B) []trace.Record {
	b.Helper()
	if benchRecordsCached == nil {
		benchRecordsCached = genRecords(b, benchRecords)
	}
	return benchRecordsCached
}

// BenchmarkGeneratorRead is the baseline: the cost of producing the record
// stream by stepping the synthetic generator live, as every simulation job
// paid before corpora existed.
func BenchmarkGeneratorRead(b *testing.B) {
	w := workloads.QMM()[0]
	b.SetBytes(benchRecords * recordMemBytes)
	for i := 0; i < b.N; i++ {
		r := w.NewReader()
		var rec trace.Record
		for n := 0; n < benchRecords; n++ {
			if err := r.Next(&rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCorpusRead streams a materialised corpus record-at-a-time
// through the pipelined reader.
func BenchmarkCorpusRead(b *testing.B) {
	c := benchCorpus(b)
	b.SetBytes(benchRecords * recordMemBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.NewReader()
		var rec trace.Record
		for {
			if err := r.Next(&rec); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
}

// BenchmarkCorpusNextBatch streams the corpus through the batch path the
// simulator hot loop uses.
func BenchmarkCorpusNextBatch(b *testing.B) {
	c := benchCorpus(b)
	buf := make([]trace.Record, 512)
	b.SetBytes(benchRecords * recordMemBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.NewReader()
		for {
			if _, err := r.NextBatch(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
}

// benchChunk is one default-size chunk of the benchmark workload.
func benchChunk(b *testing.B) []trace.Record {
	return benchGenRecords(b)[:DefaultChunkRecords]
}

// reportPerRecord reports the loop's time per encoded or decoded record.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}

// BenchmarkChunkEncode measures the build's per-chunk work: encoding one
// full chunk and checksumming the frame.
func BenchmarkChunkEncode(b *testing.B) {
	recs := benchChunk(b)
	b.SetBytes(int64(len(recs)) * recordMemBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameSink, _ = encodeChunk(recs)
	}
	reportPerRecord(b, len(recs))
}

// frameSink keeps the compiler from discarding BenchmarkChunkEncode's work.
var frameSink []byte

// BenchmarkChunkDecode measures a cache miss's work: checking one full
// chunk's frame checksum and decoding it.
func BenchmarkChunkDecode(b *testing.B) {
	recs := benchChunk(b)
	frame, crc := encodeChunk(recs)
	dst := make([]trace.Record, 0, len(recs))
	b.SetBytes(int64(len(recs)) * recordMemBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = decodeChunk(frame, uint64(len(recs)), crc, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, len(recs))
}
