// Command traceinfo inspects trace artifacts:
//
//   - a flat trace file: instruction counts, memory operation mix, code/data
//     footprints and page-transition statistics;
//   - a corpus container (.mtc): geometry and a per-chunk table of record
//     counts and compressed/uncompressed sizes;
//   - a corpus store directory: the manifest of materialised workloads.
//
// -verify additionally checks corpus contents against the index: every
// chunk's frame checksum, record count and uncompressed length.
//
// Examples:
//
//	traceinfo srv07.mgt.gz
//	traceinfo corpus/qmm-srv-07-0a1b2c3d4e5f.mtc
//	traceinfo -verify corpus/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"morrigan/internal/arch"
	"morrigan/internal/stats"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
)

func main() {
	verify := flag.Bool("verify", false, "verify corpus chunk checksums, record counts and lengths against the index")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-verify] <trace-file | corpus.mtc | corpus-dir>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		fatal("%v", err)
	}
	switch {
	case fi.IsDir():
		storeInfo(path, *verify)
	case isCorpusContainer(path):
		corpusInfo(path, *verify)
	default:
		traceFileInfo(path)
	}
}

// isCorpusContainer sniffs the corpus container magic.
func isCorpusContainer(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == "MTC1"
}

// storeInfo prints a corpus directory's manifest, optionally verifying every
// container it lists.
func storeInfo(dir string, verify bool) {
	m, err := tracestore.ReadManifest(dir)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("corpus store      %s (manifest schema %d, %d workloads)\n", dir, m.Schema, len(m.Entries))
	keys := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m.Entries[keys[i]].Workload < m.Entries[keys[j]].Workload })
	failed := 0
	for _, k := range keys {
		e := m.Entries[k]
		size := int64(0)
		if fi, err := os.Stat(filepath.Join(dir, e.File)); err == nil {
			size = fi.Size()
		}
		fmt.Printf("  %-16s %12d records  chunk %6d  %8.1f MB  %s  hash %s\n",
			e.Workload, e.Records, e.ChunkRecords, float64(size)/1e6, e.File, k[:12])
		if verify {
			if err := verifyContainer(filepath.Join(dir, e.File), e.Records); err != nil {
				failed++
				fmt.Printf("    VERIFY FAILED: %v\n", err)
			}
		}
	}
	if verify {
		if failed > 0 {
			fatal("%d of %d containers failed verification", failed, len(keys))
		}
		fmt.Printf("verified %d containers: OK\n", len(keys))
	}
}

// verifyContainer opens one container and checks it chunk by chunk, plus its
// record count against the manifest's.
func verifyContainer(path string, wantRecords uint64) error {
	c, err := tracestore.OpenFile(path)
	if err != nil {
		return err
	}
	defer c.Close()
	if c.Records() != wantRecords {
		return fmt.Errorf("container holds %d records, manifest says %d", c.Records(), wantRecords)
	}
	return c.Verify()
}

// corpusInfo prints one container's geometry and per-chunk table.
func corpusInfo(path string, verify bool) {
	c, err := tracestore.OpenFile(path)
	if err != nil {
		fatal("%v", err)
	}
	defer c.Close()
	fmt.Printf("corpus container  %s\n", path)
	fmt.Printf("records           %d\n", c.Records())
	fmt.Printf("chunks            %d (%d records each)\n", c.Chunks(), c.ChunkRecords())
	var clen, ulen uint64
	for i := 0; i < c.Chunks(); i++ {
		ci := c.Chunk(i)
		clen += ci.CompressedLen
		ulen += ci.UncompressedLen
	}
	fmt.Printf("compressed        %.1f MB (%.1f MB encoded, ratio %.2fx, %.2f bytes/record)\n",
		float64(clen)/1e6, float64(ulen)/1e6, float64(ulen)/float64(clen), float64(clen)/float64(c.Records()))
	fmt.Printf("%6s %12s %12s %14s %12s\n", "chunk", "records", "compressed", "uncompressed", "offset")
	for i := 0; i < c.Chunks(); i++ {
		ci := c.Chunk(i)
		fmt.Printf("%6d %12d %12d %14d %12d\n", i, ci.Records, ci.CompressedLen, ci.UncompressedLen, ci.Offset)
	}
	if verify {
		if err := c.Verify(); err != nil {
			fatal("verify: %v", err)
		}
		fmt.Printf("verified %d chunks: OK\n", c.Chunks())
	}
}

// traceFileInfo prints the legacy flat-trace statistics.
func traceFileInfo(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	r, err := trace.NewFileReader(f)
	if err != nil {
		fatal("%v", err)
	}

	var (
		rec         trace.Record
		n           uint64
		loads       uint64
		stores      uint64
		transitions uint64
		prevPage    arch.VPN
		codePages   = map[arch.VPN]bool{}
		dataPages   = map[arch.VPN]bool{}
		pageFreq    = stats.NewPageFrequency()
	)
	for {
		err := r.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal("reading record %d: %v", n, err)
		}
		vpn := rec.PC.Page()
		codePages[vpn] = true
		if n > 0 && vpn != prevPage {
			transitions++
			pageFreq.Observe(uint64(vpn))
		}
		prevPage = vpn
		if rec.HasLoad() {
			loads++
			dataPages[rec.Load.Page()] = true
		}
		if rec.HasStore() {
			stores++
			dataPages[rec.Store.Page()] = true
		}
		n++
	}
	if n == 0 {
		fatal("empty trace")
	}
	fmt.Printf("instructions      %d\n", n)
	fmt.Printf("loads             %d (%.1f%%)\n", loads, float64(loads)/float64(n)*100)
	fmt.Printf("stores            %d (%.1f%%)\n", stores, float64(stores)/float64(n)*100)
	fmt.Printf("code pages        %d (%.1f MB)\n", len(codePages), float64(len(codePages)*arch.PageSize)/1e6)
	fmt.Printf("data pages        %d (%.1f MB)\n", len(dataPages), float64(len(dataPages)*arch.PageSize)/1e6)
	fmt.Printf("page transitions  %d (every %.1f instructions)\n", transitions, float64(n)/float64(transitions+1))
	fmt.Printf("pages for 90%% of transitions: %d\n", pageFreq.PagesForCoverage(90))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceinfo: "+format+"\n", args...)
	os.Exit(1)
}
