// Command service runs the simulation-as-a-service daemon: a multi-tenant
// HTTP job API over the campaign runner, sharing one listener with the
// observability surface (SSE progress, Prometheus metrics, health probes).
//
// Clients authenticate with per-tenant bearer tokens, POST campaign
// submissions, watch progress on /events, and fetch merged results; repeat
// submissions whose job keys the result store already holds simulate
// nothing. SIGTERM/SIGINT drains gracefully: admission closes, the in-flight
// campaign finishes, outstanding fabric leases resolve, then the process
// exits 0.
//
// Examples:
//
//	service -addr :8080 -token dev-token -results results/
//	service -addr :8080 -tenants tenants.json -results results/ -corpus corpus/ -corpus-cache-mb 1024
//	service -addr :8080 -token dev-token -fabric :9090 -results results/
//
// tenants.json is a JSON array of tenant declarations:
//
//	[{"name": "alice", "token": "s3cret", "max_queued_jobs": 64,
//	  "max_instructions": 100000000}]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"morrigan/internal/cli"
	"morrigan/internal/fabric"
	"morrigan/internal/obs"
	"morrigan/internal/runner"
	"morrigan/internal/service"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address for the job API and observability endpoints")
		tenants    = flag.String("tenants", "", "JSON file declaring tenants (array of {name, token, max_queued_jobs, max_instructions})")
		token      = flag.String("token", "", "convenience single-tenant mode: one tenant 'default' with this token and a 4096-job quota")
		fabricAddr = flag.String("fabric", "", "serve a fabric coordinator on this address and delegate jobs to workers")
		jobs       = flag.Int("jobs", 0, "concurrent simulations per campaign (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "max queued campaigns across all tenants (0 = 64)")
		drainFor   = flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGTERM waits for the in-flight campaign before forcing exit")
		verbose    = flag.Bool("v", false, "log admissions and completions")
		stores     cli.Stores
	)
	stores.Register(flag.CommandLine)
	flag.Parse()

	tcs, err := loadTenants(*tenants, *token)
	if err != nil {
		fatal("%v", err)
	}

	obsSrv := obs.New()
	opt := service.Options{
		Tenants:            tcs,
		MaxQueuedCampaigns: *queue,
		Workers:            *jobs,
		Cache:              runner.NewResultCache(),
		Observer:           obsSrv,
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	rs, err := stores.OpenResults("service")
	if err != nil {
		fatal("%v", err)
	}
	if rs != nil {
		opt.Store = rs
	}
	cs, err := stores.OpenCorpus()
	if err != nil {
		fatal("%v", err)
	}
	if cs != nil {
		defer cs.Close()
		opt.NewReader = func(w workloads.Spec) (trace.Reader, error) {
			c, err := cs.Materialize(w, 0)
			if err != nil {
				return nil, fmt.Errorf("corpus %s: %w", w.Name, err)
			}
			return c.NewReader(), nil
		}
	}
	var coord *fabric.Coordinator
	if *fabricAddr != "" {
		copt := fabric.CoordinatorOptions{Corpus: cs}
		if *verbose {
			copt.Log = os.Stderr
		}
		coord = fabric.NewCoordinator(copt)
		baddr, err := coord.Start(*fabricAddr)
		if err != nil {
			fatal("fabric: %v", err)
		}
		fmt.Fprintf(os.Stderr, "service: fabric coordinator on http://%s — start workers with: fabric work -coordinator http://%s\n", baddr, baddr)
		opt.Remote = coord
		obsSrv.AddGaugeSource(coord.Gauges)
	}

	svc, err := service.New(opt)
	if err != nil {
		fatal("%v", err)
	}
	obsSrv.AddGaugeSource(svc.Gauges)

	mux := http.NewServeMux()
	mux.Handle("/api/v1/", svc.Handler())
	mux.Handle("/", obsSrv.Handler())
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(lis)
	}()
	fmt.Fprintf(os.Stderr, "service: job API on http://%s/api/v1/campaigns (%d tenants)\n", lis.Addr(), len(tcs))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills the process the default way

	// Graceful drain: close admission, let the in-flight campaign finish,
	// resolve outstanding fabric leases, then shut the listener down.
	fmt.Fprintln(os.Stderr, "service: draining (admission closed)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "service: %v\n", err)
	}
	if coord != nil {
		if err := coord.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "service: %v\n", err)
		}
		coord.Close()
	}
	svc.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	_ = srv.Shutdown(sctx)
	<-served
	_ = obsSrv.Close()
	fmt.Fprintln(os.Stderr, "service: drained; exiting")
}

// loadTenants resolves the tenant set from -tenants (a JSON file) or the
// -token convenience flag; exactly one must be given.
func loadTenants(path, token string) ([]service.TenantConfig, error) {
	switch {
	case path != "" && token != "":
		return nil, fmt.Errorf("-tenants and -token are mutually exclusive")
	case path != "":
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var tcs []service.TenantConfig
		if err := json.Unmarshal(raw, &tcs); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return tcs, nil
	case token != "":
		return []service.TenantConfig{{Name: "default", Token: token, MaxQueuedJobs: 4096}}, nil
	default:
		return nil, fmt.Errorf("-tenants file or -token is required")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "service: "+format+"\n", args...)
	os.Exit(1)
}
