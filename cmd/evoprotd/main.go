// Command evoprotd serves evolutionary protection optimization as an
// HTTP job service: POST a JSON job spec, watch per-generation progress
// stream over NDJSON or SSE, fetch the protected dataset when the run is
// done. Jobs checkpoint to the data directory as they evolve, so
// stopping the daemon — gracefully or by crash — loses at most one
// checkpoint interval: the next start resumes interrupted jobs where
// they left off.
//
//	evoprotd -addr :8080 -data /var/lib/evoprotd
//	evoprotd -addr 127.0.0.1:0 -data ./run -workers 4 -checkpoint-every 50
//	evoprotd -addr :8080 -store fs:/var/lib/evoprotd
//	evoprotd -addr :8080 -store mem
//
// The -store flag selects the persistence backend: "fs:<dir>" is the
// durable filesystem store (equivalent to -data <dir>, the default),
// "mem" keeps everything in process memory — nothing survives the
// process, which suits throwaway benchmarking and demo daemons.
//
// The -role flag scales the service out horizontally:
//
//	evoprotd -role coordinator -addr :8080 -data /var/lib/evoprotd
//	evoprotd -role worker -coordinator http://head:8080 -workers 4
//
// A coordinator owns admission, persistence and the public API but runs
// no jobs itself; stateless workers lease queued jobs from it over HTTP
// and persist through it. The default role, standalone, is the
// single-process service above, byte-compatible with earlier releases.
//
// Multi-tenant hardening is opt-in via -auth and friends:
//
//	evoprotd -addr :8080 -auth keys.txt -rate 5 -max-active 32 -ttl 72h
//
// -auth names a static API-key file (one "<api-key> <tenant>" per
// line) putting every /v1 route behind a key; jobs then belong to their
// submitting tenant and other tenants cannot see them. -rate/-burst
// token-bucket each tenant's submissions and -max-active caps its
// queued+running jobs (breaches answer 429 + Retry-After). Specs may
// carry "priority" 0..9; a high-priority submission against a full
// worker pool preempts the lowest-priority running job — checkpoint,
// requeue, resume — without changing its eventual result. -ttl
// garbage-collects finished jobs' persisted data after a grace period.
//
// See cmd/evoprotd/README.md for the job spec, endpoint reference,
// multi-tenant operation and cluster topology.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"evoprot/internal/cluster"
	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evoprotd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evoprotd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
		dataDir    = fs.String("data", "evoprotd-data", "persistence root: specs, datasets, event logs, checkpoints")
		storeSpec  = fs.String("store", "", `storage backend: "fs:<dir>" (durable, the default over -data) or "mem" (in-process, lost on exit)`)
		workers    = fs.Int("workers", min(4, runtime.GOMAXPROCS(0)), "jobs evolving concurrently (per process)")
		queueDepth = fs.Int("queue", serve.DefaultQueueDepth, "accepted jobs that may wait for a worker")
		ckptEvery  = fs.Int("checkpoint-every", serve.DefaultCheckpointEvery, "generations between periodic checkpoints (the most a crash can lose)")
		allowPaths = fs.Bool("allow-dataset-paths", false, "let job specs name server-side CSV paths")
		drain      = fs.Duration("drain", 30*time.Second, "shutdown grace for interrupting jobs and draining requests")
		role       = fs.String("role", "standalone", `process role: "standalone" (serve and run jobs), "coordinator" (serve and lease jobs out) or "worker" (lease and run jobs)`)
		coordURL   = fs.String("coordinator", "", "coordinator base URL, e.g. http://head:8080 (required with -role worker)")
		leaseTTL   = fs.Duration("lease-ttl", cluster.DefaultLeaseTTL, "how long a worker lease survives missed heartbeats before its job is re-queued (coordinator)")
		name       = fs.String("name", "", "worker name in leases and logs (worker; defaults to the hostname)")
		authFile   = fs.String("auth", "", `API-key file enabling multi-tenant auth: one "<api-key> <tenant>" per line (empty keeps the open anonymous mode)`)
		rate       = fs.Float64("rate", 0, "per-tenant submission rate limit in jobs/second; 0 disables (breaches answer 429)")
		burst      = fs.Int("burst", 0, "rate limiter burst capacity; 0 derives it from -rate")
		maxActive  = fs.Int("max-active", 0, "per-tenant cap on queued+running jobs; 0 disables (breaches answer 429)")
		ttl        = fs.Duration("ttl", 0, "garbage-collect finished jobs' data this long after they end; 0 keeps them forever")
		gcEvery    = fs.Duration("gc-every", 0, "garbage-collection sweep interval; 0 derives it from -ttl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// -store picks the persistence backend: the filesystem store over
	// -data by default, "fs:<dir>" to name its directory inline, "mem"
	// to keep everything in process. openStore builds it for both
	// serving roles, once their flags check out; a worker persists
	// through its coordinator and opens none.
	where := *dataDir
	switch {
	case *storeSpec == "":
	case *storeSpec == "mem":
		where = "in-memory (lost on exit)"
	case strings.HasPrefix(*storeSpec, "fs:"):
		where = strings.TrimPrefix(*storeSpec, "fs:")
		if where == "" {
			return fmt.Errorf(`-store fs: needs a directory, e.g. "fs:/var/lib/evoprotd"`)
		}
	default:
		return fmt.Errorf(`unknown -store %q: want "fs:<dir>" or "mem"`, *storeSpec)
	}
	openStore := func() (storage.Store, error) {
		if *storeSpec == "mem" {
			return storage.NewMem(), nil
		}
		return storage.NewFS(where)
	}

	var keyring *serve.Keyring
	if *authFile != "" {
		k, err := serve.LoadKeyring(*authFile)
		if err != nil {
			return fmt.Errorf("-auth: %w", err)
		}
		keyring = k
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	serveCfg := serve.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CheckpointEvery:  *ckptEvery,
		AllowDatasetPath: *allowPaths,
		Keyring:          keyring,
		TenantRate:       *rate,
		TenantBurst:      *burst,
		TenantMaxActive:  *maxActive,
		TTL:              *ttl,
		GCEvery:          *gcEvery,
		Logf:             logger.Printf,
	}

	switch *role {
	case "standalone":
		if *coordURL != "" {
			return fmt.Errorf("-coordinator only applies to -role worker")
		}
		store, err := openStore()
		if err != nil {
			return err
		}
		serveCfg.Store = store
		srv, err := serve.New(serveCfg)
		if err != nil {
			return err
		}
		srv.Start()
		banner := fmt.Sprintf("evoprotd listening on %%s (data: %s)", where)
		return serveAndDrain(ctx, stdout, logger, *addr, banner, srv.Handler(), *drain, srv.Stop)

	case "coordinator":
		if *coordURL != "" {
			return fmt.Errorf("-coordinator only applies to -role worker")
		}
		store, err := openStore()
		if err != nil {
			return err
		}
		serveCfg.Store = store
		coord, err := cluster.NewCoordinator(cluster.Config{Serve: serveCfg, LeaseTTL: *leaseTTL})
		if err != nil {
			return err
		}
		coord.Start()
		banner := fmt.Sprintf("evoprotd coordinator listening on %%s (data: %s)", where)
		return serveAndDrain(ctx, stdout, logger, *addr, banner, coord.Handler(), *drain, coord.Stop)

	case "worker":
		if *coordURL == "" {
			return fmt.Errorf("-role worker needs -coordinator, e.g. -coordinator http://head:8080")
		}
		if *name == "" {
			host, err := os.Hostname()
			if err != nil {
				host = "worker"
			}
			*name = host
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator:     *coordURL,
			Name:            *name,
			Concurrency:     *workers,
			CheckpointEvery: *ckptEvery,
			Logf:            logger.Printf,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "evoprotd worker %q serving coordinator %s (%d concurrent jobs)\n", *name, *coordURL, *workers)
		w.Run(ctx)
		fmt.Fprintln(stdout, "shutting down; leased jobs handed back resumable")
		return nil

	default:
		return fmt.Errorf(`unknown -role %q: want "standalone", "coordinator" or "worker"`, *role)
	}
}

// serveAndDrain listens on addr, announces the bound address through
// the banner (a format string with one %s for the address), serves
// handler until ctx ends, then stops the service and drains requests
// within the configured grace.
func serveAndDrain(ctx context.Context, stdout io.Writer, logger *log.Logger, addr, banner string, handler http.Handler, drain time.Duration, stop func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	fmt.Fprintf(stdout, banner+"\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Graceful exit: interrupt the workers first — Stop also unblocks any
	// event streamers of in-flight jobs, so the request drain below does
	// not hang on them. Jobs are left resumable on disk: the daemon's
	// contract is that a restart continues them, so shutdown must not
	// cancel them.
	fmt.Fprintln(stdout, "shutting down; in-flight jobs stay resumable")
	stopCtx, cancelStop := context.WithTimeout(context.Background(), drain)
	defer cancelStop()
	stopErr := stop(stopCtx)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drain)
	defer cancelDrain()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("evoprotd: http shutdown: %v", err)
	}
	return stopErr
}
