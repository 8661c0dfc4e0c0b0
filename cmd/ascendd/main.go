// Command ascendd is the analysis daemon: it serves the full pipeline
// (simulate, roofline, optimize, trace, whole-model analysis) as JSON
// over HTTP, with request coalescing, bounded admission and live
// Prometheus metrics. One warmed daemon amortizes simulation cost
// across every client; see FORMATS.md §8 for the API.
//
// Usage:
//
//	ascendd -addr 127.0.0.1:8372
//	ascendd -addr 127.0.0.1:0      # pick a free port, printed on stdout
//	ascendd -concurrency 4 -queue 128 -timeout 60s
//	ascendd -l2 http://router:8380  # consult a shared cluster cache tier
//	ascendd -surrogate MODEL_surrogate.json -surrogatelog train.jsonl
//
// SIGINT/SIGTERM drain in-flight requests before exit: /readyz turns
// 503 (with Retry-After on shed analyses) while in-flight work
// finishes, so a router in front fails new traffic over cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ascendperf/internal/cliutil"
	"ascendperf/internal/cluster"
	"ascendperf/internal/engine"
	"ascendperf/internal/opt"
	"ascendperf/internal/serve"
	"ascendperf/internal/surrogate"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8372", "listen address (port 0 picks a free port)")
		concurrency = flag.Int("concurrency", 0, "max simultaneously executing analyses (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "max queued requests before shedding with 429 (0 = 64)")
		timeout     = flag.Duration("timeout", 0, "per-request deadline covering queue wait and execution (0 = 30s)")
		respCache   = flag.Int("respcache", 0, "encoded-response LRU capacity in entries (0 = 512, negative disables)")
		drainWait   = flag.Duration("drain", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		workers     = flag.Int("workers", 0, "engine worker pool size (0 = ASCENDPERF_WORKERS or GOMAXPROCS)")
		cacheCap    = flag.Int("cache", engine.DefaultCacheCapacity, "simulation cache capacity in entries (0 disables)")
		l2          = flag.String("l2", "", "base URL of a shared L2 cache tier (an ascendrouter -l2dir or cache server); consulted on local cache miss")
		surrModel   = flag.String("surrogate", "", "learned surrogate model (ascendfit train output); answers /v1/simulate cache misses behind a confidence gate")
		surrLog     = flag.String("surrogatelog", "", "JSONL training log appended on gated fallbacks (feed back into ascendfit train -log)")
		episodes    = flag.String("episodes", "", "episodic-memory directory for /v1/optimize search mode (default ASCENDPERF_EPISODE_DIR); repeat searches warm-start from stored winners")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendd"))
		return
	}
	engine.SetWorkers(*workers)
	engine.SetCacheCapacity(*cacheCap)
	if *surrModel != "" {
		m, err := surrogate.LoadModel(*surrModel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ascendd:", err)
			os.Exit(1)
		}
		pred := surrogate.NewPredictor(m, *surrLog)
		engine.SetPredictor(pred)
		defer pred.Close()
		fmt.Printf("ascendd: surrogate %s (MAPE bound %.4f)\n", *surrModel, m.MAPEBound)
	} else if *surrLog != "" {
		fmt.Fprintln(os.Stderr, "ascendd: -surrogatelog requires -surrogate")
		os.Exit(1)
	}
	if *episodes != "" {
		if err := opt.SetEpisodeDir(*episodes); err != nil {
			fmt.Fprintln(os.Stderr, "ascendd:", err)
			os.Exit(1)
		}
	}
	cfg := serve.Config{
		Concurrency:   *concurrency,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		ResponseCache: *respCache,
	}
	if *l2 != "" {
		cfg.L2 = cluster.NewL2Client(*l2, 0)
	}
	if err := run(*addr, cfg, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "ascendd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, drainWait time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	return serveOn(ln, serve.New(cfg), drainWait, sigc)
}

// serveOn serves on ln until stop fires, then drains in-flight work and
// shuts the listener down. Split from run so tests can drive it with a
// synthetic stop channel and a port-0 listener.
func serveOn(ln net.Listener, svc *serve.Server, drainWait time.Duration, stop <-chan os.Signal) error {
	// The resolved address line is machine-parseable: the CI smoke test
	// (and any script using -addr :0) reads the port from it.
	fmt.Printf("ascendd: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Printf("ascendd: %v: draining\n", sig)
	case err := <-serveErr:
		return err
	}

	// Drain first so /readyz fails and new analyses are shed while
	// in-flight ones finish, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ascendd:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("ascendd: shutdown complete")
	return nil
}
