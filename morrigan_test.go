package morrigan_test

import (
	"bytes"
	"io"
	"testing"

	"morrigan"
	"morrigan/internal/experiments"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	w, ok := morrigan.WorkloadByName("qmm-srv-40")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(300_000, 1_200_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 1_200_000 || st.PBHits == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicBaselineConstructors(t *testing.T) {
	for name, pf := range map[string]morrigan.Prefetcher{
		"sp":    morrigan.NewSP(),
		"asp":   morrigan.NewASP(64),
		"dp":    morrigan.NewDP(64),
		"mp":    morrigan.NewMP(128, 4),
		"mpinf": morrigan.NewUnboundedMP(0),
	} {
		if pf == nil {
			t.Errorf("%s: nil prefetcher", name)
		}
	}
	for name, pf := range map[string]morrigan.ICachePrefetcher{
		"nextline": morrigan.NewNextLinePrefetcher(),
		"fnlmma":   morrigan.NewFNLMMA(),
		"epi":      morrigan.NewEPI(),
		"djolt":    morrigan.NewDJolt(),
	} {
		if pf == nil {
			t.Errorf("%s: nil I-cache prefetcher", name)
		}
	}
}

func TestPublicPrefetcherConfigs(t *testing.T) {
	def := morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	mono := morrigan.NewMorrigan(morrigan.MonoPrefetcherConfig())
	big := morrigan.NewMorrigan(morrigan.ScaledPrefetcherConfig(2))
	if def.Name() != "Morrigan" || mono.Name() != "Morrigan-mono" {
		t.Fatal("prefetcher names wrong")
	}
	if big.StorageBits() <= def.StorageBits() {
		t.Fatal("scaled config not larger")
	}
}

func TestPublicWorkloadSuites(t *testing.T) {
	if len(morrigan.QMMWorkloads()) != 45 {
		t.Fatal("QMM suite size")
	}
	if len(morrigan.SPECWorkloads()) == 0 || len(morrigan.JavaWorkloads()) == 0 {
		t.Fatal("suites empty")
	}
	pairs := morrigan.SMTWorkloadPairs(5, 1)
	if len(pairs) != 5 {
		t.Fatal("pairs")
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	params := morrigan.QMMWorkloads()[0].Params
	gen := morrigan.NewServerTrace(params)
	var buf bytes.Buffer
	tw, err := morrigan.NewTraceWriter(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	var rec morrigan.TraceRecord
	for i := 0; i < 1000; i++ {
		if err := gen.Next(&rec); err != nil {
			t.Fatal(err)
		}
		if err := tw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := morrigan.NewTraceFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if err := r.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("read %d records", n)
	}
}

func TestPublicLimitTrace(t *testing.T) {
	gen := morrigan.NewServerTrace(morrigan.QMMWorkloads()[0].Params)
	lim := morrigan.LimitTrace(gen, 10)
	var rec morrigan.TraceRecord
	n := 0
	for lim.Next(&rec) == nil {
		n++
		if n > 11 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("limited trace yielded %d records", n)
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := experiments.Order
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	tab, err := experiments.Run("table1", experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	tab.Render(&sb)
	if sb.Len() == 0 {
		t.Fatal("empty render")
	}
	if _, err := experiments.Run("nope", experiments.QuickOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPolicyConstants(t *testing.T) {
	if morrigan.PolicyRLFU.String() != "RLFU" || morrigan.PolicyLRU.String() != "LRU" {
		t.Fatal("policy constants wrong")
	}
	cfg := morrigan.DefaultPrefetcherConfig()
	cfg.Policy = morrigan.PolicyLFU
	if morrigan.NewMorrigan(cfg) == nil {
		t.Fatal("nil prefetcher")
	}
}
