// Command drgpum-serve is the long-lived profiling daemon: concurrent
// profiling sessions over an HTTP/JSON API, all sharing the process-wide
// engine so identical submissions dedupe into one profile run.
//
// Usage:
//
//	drgpum-serve [-addr 127.0.0.1:8321] [-capacity N] [-ttl 15m]
//	             [-sweep 1m] [-smoke]
//
// API (see README "Serving" for a curl walkthrough):
//
//	POST /v1/sessions              {"runs":[{"workload":"polybench/2mm"}]}
//	GET  /v1/sessions/s-1          status + per-batch engine stats
//	GET  /v1/sessions/s-1/report   ?format=text|gui|html|profile|stats&run=0
//	GET  /v1/metrics               server/engine/obs summary
//	GET  /v1/healthz               liveness
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains every
// in-flight session to completion, prints a final account and exits 0.
//
// -smoke boots on a loopback port, drives one session end to end through
// its own API (submit → poll → report → metrics), then shuts down — the
// `make serve-smoke` gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drgpum/internal/serve"
)

// Connection timeouts of the daemon's http.Server. A client that trickles
// its request headers is cut off after readHeaderTimeout, and an idle
// keep-alive connection is closed after idleTimeout, so stalled or
// abandoned clients cannot pin connections (and their goroutines) forever.
// Request bodies and responses are not bounded: submissions are small, and
// report downloads may legitimately be large.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the API handler in an http.Server with the daemon's
// connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum-serve: ")

	var (
		addr     = flag.String("addr", "127.0.0.1:8321", "listen address (host:port; port 0 picks a free port)")
		capacity = flag.Int("capacity", serve.DefaultCapacity, "max resident sessions (older ones are LRU-evicted)")
		ttl      = flag.Duration("ttl", serve.DefaultTTL, "idle session time-to-live")
		sweep    = flag.Duration("sweep", time.Minute, "TTL sweep period")
		smoke    = flag.Bool("smoke", false, "boot on a loopback port, run one session round-trip, shut down")
	)
	flag.Parse()
	if *smoke {
		*addr = "127.0.0.1:0"
	}

	if err := run(*addr, *capacity, *ttl, *sweep, *smoke); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, capacity int, ttl, sweepEvery time.Duration, smoke bool) error {
	srv := serve.New(serve.Config{Capacity: capacity, TTL: ttl})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("drgpum-serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The TTL sweeper: residency stays bounded even when nobody asks.
	go func() {
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				srv.SweepExpired()
			}
		}
	}()

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if smoke {
		if err := smokeRoundTrip("http://" + ln.Addr().String()); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		fmt.Println("drgpum-serve: smoke ok")
		stop() // fall through to the normal shutdown path
	}

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	// Graceful shutdown: stop the listener, then drain every in-flight
	// session body before reporting the final account.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Drain()
	sum := srv.Summary()
	fmt.Printf("drgpum-serve: drained; sessions issued=%d done=%d failed=%d resident=%d\n",
		sum.Issued, sum.Done, sum.Failed, sum.Resident)
	return nil
}

// smokeRoundTrip drives one session end to end through the public API:
// submit, poll to done, fetch the text report, read the metrics.
func smokeRoundTrip(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"runs":[{"workload":"simplemulticopy"}]}`))
	if err != nil {
		return err
	}
	var sub serve.SubmitResponse
	if err := decodeJSON(resp, http.StatusCreated, &sub); err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/sessions/" + sub.ID)
		if err != nil {
			return err
		}
		var st serve.StatusResponse
		if err := decodeJSON(resp, http.StatusOK, &st); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			return fmt.Errorf("session failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session still %s after 60s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	report, err := fetchText(client, base+"/v1/sessions/"+sub.ID+"/report?format=text")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if !strings.Contains(report, "DrGPUM report") {
		return fmt.Errorf("report does not look like a DrGPUM report:\n%s", report)
	}

	metrics, err := fetchText(client, base+"/v1/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if !strings.Contains(metrics, "engine runs") {
		return fmt.Errorf("metrics missing engine stats:\n%s", metrics)
	}
	return nil
}

func decodeJSON(resp *http.Response, wantStatus int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantStatus, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchText(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return string(body), nil
}
