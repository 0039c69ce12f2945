package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/serve"
	"drgpum/internal/workloads"
)

// serveParams sizes the serve-mixed workload.
type serveParams struct {
	clients     int      // closed-loop clients, one keep-alive connection each
	setups      int      // server boots timed; setup_s is their median
	warmups     int      // three-run warm-up sessions per boot
	minSessions int      // the least number of sessions per client
	programs    []string // restricts the program mix (tests); empty means all
}

func defaultServeParams() serveParams {
	return serveParams{clients: 2, setups: 3, warmups: 4, minSessions: 3}
}

// The poll back-off of a client waiting for its session, and the think
// time between a client's sessions. The back-off stops at 2 ms, so a
// session's latency is not rounded up to the next step of a long back-off
// (a 16 ms cap made the median session latency jump between steps). With
// the think time the two clients leave the machine some slack, so
// queueing does not amplify the host's own speed drift.
const (
	pollFirst = time.Millisecond
	pollMax   = 2 * time.Millisecond
	thinkTime = 25 * time.Millisecond
)

// serveRun is one run of a session: the request sent and the report
// format fetched for it.
type serveRun struct {
	req    serve.RunRequest
	format core.Format
	repeat bool
}

// sessionGen generates one client's seeded session stream. Everything is
// dealt from shuffled decks that are refilled when they run out, so every
// seed draws the same mix in a different order:
//
//   - session sizes from {1, 2, 3};
//   - runs from {repeat, fresh, fresh, fresh}: a quarter repeat one of the
//     client's own earlier runs, so whether a run hits the cache does not
//     depend on how the clients interleave;
//   - fresh runs from 16 cards per program: 14 object-level (3 of them
//     streaming) and 2 intra-object (1 streaming), 5 on the optimized
//     variant and 4 on the A100. A cached intra-object report holds its
//     per-element access maps, about 40 times an object-level report, so
//     the intra-object share sets how fast the engine cache grows.
//
// Every fresh run also gets a salt no other run of any stream uses, so the
// stream never runs out of cache misses however long the run.
type sessionGen struct {
	r        *rng
	programs []string
	client   int
	streams  int
	fresh    int
	sizes    []int
	repeats  []bool
	deck     []card
	history  []serve.RunRequest
}

// card is one fresh run's shape.
type card struct {
	program                           string
	intra, streaming, optimized, a100 bool
}

func newSessionGen(seed uint64, client, streams int, programs []string) *sessionGen {
	r := newRNG(seed)
	for i := 0; i <= client; i++ {
		r = r.fork()
	}
	return &sessionGen{r: r, programs: programs, client: client, streams: streams}
}

// deal takes the last element of a deck, refilling and shuffling the deck
// first when it is empty.
func deal[T any](r *rng, deck *[]T, fill func() []T) T {
	if len(*deck) == 0 {
		*deck = fill()
		d := *deck
		r.shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	d := *deck
	c := d[len(d)-1]
	*deck = d[:len(d)-1]
	return c
}

// next returns the next session's runs: n of them, or a dealt 1 to 3 when
// n is 0, never the same run twice.
func (g *sessionGen) next(n int) []serveRun {
	if n <= 0 {
		n = deal(g.r, &g.sizes, func() []int { return []int{1, 2, 3} })
	}
	var runs []serveRun
	used := make(map[serve.RunRequest]bool)
	for len(runs) < n {
		var run serveRun
		repeat := deal(g.r, &g.repeats, func() []bool { return []bool{true, false, false, false} })
		if repeat && len(g.history) > 0 {
			run.req = g.history[g.r.intn(len(g.history))]
			run.repeat = true
		} else {
			run.req = g.freshRun()
		}
		if used[run.req] {
			continue
		}
		used[run.req] = true
		formats := exportFormats(run.req.Streaming)
		run.format = formats[g.r.intn(len(formats))]
		runs = append(runs, run)
	}
	for _, run := range runs {
		if !run.repeat {
			g.history = append(g.history, run.req)
		}
	}
	return runs
}

// freshRun deals a run no stream has requested before. The salt is the
// sampling period: ignored at object level, and at intra-object level at
// least the paper's Figure 6 period of 100.
func (g *sessionGen) freshRun() serve.RunRequest {
	c := deal(g.r, &g.deck, func() []card {
		var d []card
		for _, p := range g.programs {
			for i := 0; i < 16; i++ {
				d = append(d, card{
					program:   p,
					intra:     i >= 14,
					streaming: i >= 11 && i != 14,
					optimized: i%3 == 2,
					a100:      i%4 == 3,
				})
			}
		}
		return d
	})
	g.fresh++
	salt := g.fresh*g.streams + g.client
	req := serve.RunRequest{
		Workload:  c.program,
		Variant:   "naive",
		Device:    "rtx3090",
		Mode:      "object",
		Sampling:  salt,
		Streaming: c.streaming,
	}
	if c.intra {
		req.Mode = "intra"
		req.Sampling = 100 + salt
	}
	if c.optimized {
		req.Variant = "optimized"
	}
	if c.a100 {
		req.Device = "a100"
	}
	return req
}

// sessionResult is what one client saw of one session.
type sessionResult struct {
	latency time.Duration
	polls   int
	traced  bool
	err     error
}

// client drives one closed loop over its own keep-alive connection.
type client struct {
	base   string
	http   *http.Client
	gen    *sessionGen
	tr     *tracer
	index  int
	digest map[string]fetched // spec+format -> the bytes received
	done   []sessionResult
	counts map[string]uint64
	// reports holds every report fetch's latency in seconds, by format.
	reports map[core.Format][]float64
}

// fetched identifies report bytes received over HTTP.
type fetched struct {
	req    serve.RunRequest
	format core.Format
	sum    uint64
	n      int
}

func digestKey(req serve.RunRequest, f core.Format) string {
	return fmt.Sprintf("%+v/%s", req, f)
}

// session submits one session, polls it to completion and fetches every
// run's report. Every non-2xx answer and every engine-accounting mismatch
// is an error.
func (c *client) session(round, n int) sessionResult {
	runs := c.gen.next(n)
	root := c.tr.begin("session", -1, c.index<<24|round, round)
	rc := runCtx{tr: c.tr, parent: root, group: c.index<<24 | round, round: round}
	start := time.Now()
	res := sessionResult{traced: c.tr.on}
	defer func() {
		c.tr.end(root)
		c.done = append(c.done, res)
	}()

	sub := serve.SubmitRequest{}
	for _, r := range runs {
		sub.Runs = append(sub.Runs, r.req)
	}
	body, err := json.Marshal(sub)
	if err != nil {
		res.err = fmt.Errorf("encoding submission: %w", err)
		return res
	}
	var ack serve.SubmitResponse
	sp := rc.begin("serve.submit")
	err = c.do(http.MethodPost, "/v1/sessions", body, http.StatusCreated, func(b []byte) error { return json.Unmarshal(b, &ack) })
	rc.tr.end(sp)
	if err != nil {
		res.err = err
		return res
	}

	var st serve.StatusResponse
	wait := pollFirst
	for {
		sp := rc.begin("serve.status")
		err := c.do(http.MethodGet, "/v1/sessions/"+ack.ID, nil, http.StatusOK, func(b []byte) error { return json.Unmarshal(b, &st) })
		rc.tr.end(sp)
		res.polls++
		if err != nil {
			res.err = err
			return res
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		time.Sleep(wait)
		if wait *= 2; wait > pollMax {
			wait = pollMax
		}
	}
	if st.State != "done" {
		res.err = fmt.Errorf("session %s failed: %s", ack.ID, st.Error)
		return res
	}

	var sums []fetched
	for i, r := range runs {
		sp := rc.begin("serve.report")
		t := time.Now()
		var got []byte
		err := c.do(http.MethodGet, "/v1/sessions/"+ack.ID+"/report?format="+r.format.String()+"&run="+strconv.Itoa(i), nil, http.StatusOK,
			func(b []byte) error { got = b; return nil })
		c.reports[r.format] = append(c.reports[r.format], time.Since(t).Seconds())
		rc.tr.end(sp)
		if err != nil {
			res.err = err
			return res
		}
		h := fnv.New64a()
		h.Write(got)
		sums = append(sums, fetched{req: r.req, format: r.format, sum: h.Sum64(), n: len(got)})
	}
	res.latency = time.Since(start)

	hits, misses := 0, 0
	for _, r := range runs {
		if r.repeat {
			hits++
		} else {
			misses++
		}
	}
	if st.Engine == nil || st.Engine.Hits != hits || st.Engine.Misses != misses || st.Engine.Dedups != 0 {
		res.err = fmt.Errorf("session %s: engine served %+v, want %d hits and %d misses", ack.ID, st.Engine, hits, misses)
		return res
	}
	c.counts["runs"] += uint64(len(runs))
	c.counts["engine_hits"] += uint64(hits)
	c.counts["engine_misses"] += uint64(misses)
	for _, f := range sums {
		c.counts["report_bytes"] += uint64(f.n)
		k := digestKey(f.req, f.format)
		if prev, ok := c.digest[k]; ok && (prev.sum != f.sum || prev.n != f.n) {
			res.err = fmt.Errorf("session %s: report of %s changed between fetches", ack.ID, k)
			return res
		}
		c.digest[k] = f
	}
	return res
}

// do sends one request and hands the body of a want-status answer to fn.
func (c *client) do(method, path string, body []byte, want int, fn func([]byte) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := fn(b); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// server is one in-process drgpum-serve instance on a loopback port.
type server struct {
	srv  *serve.Server
	eng  *engine.Engine
	http *http.Server
	base string
	done chan error
}

// startServer boots a server with a fresh engine; engineObs, when set, is
// the engine's self-observability recorder.
func startServer(engineObs *obs.Recorder) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	eng := engine.New(engine.Config{Workers: 2, Obs: engineObs})
	srv := serve.New(serve.Config{Engine: eng})
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s := &server{srv: srv, eng: eng, http: hs, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains in-flight sessions and waits for the
// serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.srv.Drain()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	return nil
}

func (s *server) newClient(gen *sessionGen, tr *tracer, index int) *client {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		base: s.base, http: &http.Client{Transport: transport}, gen: gen, tr: tr, index: index,
		digest: make(map[string]fetched), counts: make(map[string]uint64),
		reports: make(map[core.Format][]float64),
	}
}

// runServeMixed drives an in-process server with a closed loop of clients,
// each submitting seeded sessions, polling them and fetching their
// reports; afterwards it re-profiles every distinct run in a separate
// engine and requires the served bytes to equal the in-process export.
func runServeMixed(env *runEnv, prm serveParams) (*outcome, error) {
	o := newOutcome()
	programs := prm.programs
	if len(programs) == 0 {
		programs = workloads.Names()
	}
	var engineObs *obs.Recorder
	if env.traced {
		// The traced run reads the engine's own run timings. Reports then
		// carry observability sections, so the reference engine records too.
		engineObs = obs.New()
	}

	var setups []float64
	var srv *server
	for i := 0; i < prm.setups; i++ {
		t := time.Now()
		s, err := startServer(engineObs)
		if err != nil {
			return nil, err
		}
		// Warm-up sessions of runs no measured session requests. Their
		// stream ignores the seed, so set-up does the same work for every
		// seed.
		warm := s.newClient(newSessionGen(0, prm.clients, prm.clients+1, programs), newTracer(false, env.t0), prm.clients)
		for j := 0; j < prm.warmups; j++ {
			res := warm.session(-1, 3)
			o.attempted++
			if res.err != nil {
				o.fail("warm-up session: %v", res.err)
			}
		}
		warm.http.CloseIdleConnections()
		setups = append(setups, time.Since(t).Seconds())
		if i < prm.setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}

	clients := make([]*client, prm.clients)
	for i := range clients {
		// The warm-up stream is stream number prm.clients: every stream
		// salts its fresh runs apart from the others.
		clients[i] = srv.newClient(newSessionGen(env.seed, i, prm.clients+1, programs), newTracer(false, env.t0), i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for round := 0; round < prm.minSessions || !env.elapsed(start); round++ {
				// A traced run traces every other session: the latency
				// difference between the two halves is the tracing overhead.
				c.tr.on = env.traced && round%2 == 0
				c.session(round, 0)
				time.Sleep(thinkTime)
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	heap := liveHeap()
	stats := srv.eng.Stats()
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	var latencies, tracedLat, plainLat []float64
	reports := make(map[core.Format][]float64)
	var polls int
	counts := make(map[string]uint64)
	all := make(map[string]fetched)
	for _, c := range clients {
		for _, s := range c.done {
			o.attempted++
			if s.err != nil {
				o.fail("client %d: %v", c.index, s.err)
				continue
			}
			latencies = append(latencies, s.latency.Seconds())
			if s.traced {
				tracedLat = append(tracedLat, s.latency.Seconds())
			} else {
				plainLat = append(plainLat, s.latency.Seconds())
			}
			polls += s.polls
		}
		for _, f := range core.Formats() {
			reports[f] = append(reports[f], c.reports[f]...)
		}
		for _, k := range sortedKeys(c.counts) {
			counts[k] += c.counts[k]
		}
		for _, k := range sortedKeys(c.digest) {
			all[k] = c.digest[k]
		}
	}
	env.logf("serve-mixed: %d sessions, %d distinct reports in %.1fs; engine %+v", len(latencies), len(all), window.Seconds(), stats)

	refStart := time.Now()
	if err := checkServedBytes(o, all, engineObs != nil); err != nil {
		return nil, err
	}
	env.logf("serve-mixed: reference profiles checked in %.1fs", time.Since(refStart).Seconds())

	o.counters = counts
	o.counterUnit = "run (totals grow with the sessions completed)"
	o.counterCheck = "every session's engine hits and misses equal the seeded stream's repeats and fresh runs"
	if !env.traced {
		// Formats differ in size by orders of magnitude, so report_ms is
		// the median over formats of each format's median fetch.
		var perFormat []float64
		for _, f := range core.Formats() {
			if len(reports[f]) > 0 {
				perFormat = append(perFormat, median(reports[f]))
			}
		}
		o.setE2E(setups, latencies, o.tailOf("sessions", latencies), []float64{float64(len(latencies)) / window.Seconds()},
			perFormat, []float64{float64(heap) / (1 << 20)})
		return o, nil
	}
	tr := newTracer(true, env.t0)
	for _, c := range clients {
		tr.merge(c.tr)
	}
	o.spans = tr.spans
	serveLayers(o, stats, engineObs, len(latencies), polls)
	o.metrics["spans.overhead_pct"] = 100 * (median(tracedLat) - median(plainLat)) / median(plainLat)
	return o, nil
}

// checkServedBytes profiles every distinct served run again in a fresh
// engine and compares each served report with the in-process export of
// the same run in the same format: serve's byte-identity contract. Runs
// are re-profiled a few at a time, so the reference reports do not pile
// up beside the server's cache.
func checkServedBytes(o *outcome, served map[string]fetched, withObs bool) error {
	keys := sortedKeys(served)
	var ref *obs.Recorder
	if withObs {
		ref = obs.New()
	}
	byReq := make(map[serve.RunRequest][]string)
	var reqs []serve.RunRequest
	for _, k := range keys {
		req := served[k].req
		if _, ok := byReq[req]; !ok {
			reqs = append(reqs, req)
		}
		byReq[req] = append(byReq[req], k)
	}
	const chunk = 8
	for lo := 0; lo < len(reqs); lo += chunk {
		hi := min(lo+chunk, len(reqs))
		specs := make([]engine.RunSpec, 0, hi-lo)
		for _, req := range reqs[lo:hi] {
			spec, err := specOf(req)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
		// A fresh engine per chunk: its cache dies with it.
		results, _ := engine.New(engine.Config{Workers: 2, Obs: ref}).Run(specs)
		for i, req := range reqs[lo:hi] {
			for _, k := range byReq[req] {
				o.check(sameServed(k, served[k], results[i]))
			}
		}
	}
	return nil
}

// sameServed compares served report bytes with the reference export.
func sameServed(k string, f fetched, res engine.Result) error {
	if res.Err != nil {
		return fmt.Errorf("reference run of %s: %w", k, res.Err)
	}
	var buf bytes.Buffer
	if err := res.Report.Export(&buf, f.format); err != nil {
		return fmt.Errorf("reference export of %s: %w", k, err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if h.Sum64() != f.sum || buf.Len() != f.n {
		return fmt.Errorf("served report of %s differs from the in-process export (%d vs %d bytes)", k, f.n, buf.Len())
	}
	return nil
}

// specOf maps a run request onto the engine run the server executes for
// it, in the CLI vocabulary serve documents (the generator only emits
// the values handled here).
func specOf(req serve.RunRequest) (engine.RunSpec, error) {
	w, ok := workloads.Lookup(req.Workload)
	if !ok {
		return engine.RunSpec{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	spec := engine.RunSpec{
		Mode:      engine.ModeProfile,
		Workload:  w,
		Spec:      gpu.SpecRTX3090(),
		Level:     gpu.PatchFull,
		Sampling:  req.Sampling,
		Streaming: req.Streaming,
		Window:    req.Window,
	}
	if req.Device == "a100" {
		spec.Spec = gpu.SpecA100()
	}
	if req.Variant == "optimized" {
		spec.Variant = workloads.VariantOptimized
	}
	if req.Mode == "object" {
		spec.Level = gpu.PatchAPI
	}
	if spec.Sampling == 0 {
		spec.Sampling = 1
	}
	return spec, nil
}

// serveLayers derives the per-layer metrics of a traced serve-mixed run.
func serveLayers(o *outcome, stats engine.Stats, engineObs *obs.Recorder, sessions, polls int) {
	agg := aggregate(o.spans)
	m := o.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["engine.hit_ratio"] = ratio(uint64(stats.Hits+stats.Dedups), uint64(stats.Runs))
	m["engine.misses"] = float64(stats.Misses)
	if snap := engineObs.Snapshot(); len(snap.Spans) > 0 {
		for _, n := range snap.Spans {
			if n.Name != "engine" {
				continue
			}
			for _, ch := range n.Children {
				if ch.Name == engine.ModeProfile.String() && ch.Count > 0 {
					m["engine.run_ms"] = float64(ch.Nanos) / 1e6 / float64(ch.Count)
				}
			}
		}
	}
	m["serve.submit_ms"] = 1000 * durMedian(agg, "serve.submit")
	m["serve.status_ms"] = 1000 * durMedian(agg, "serve.status")
	m["serve.report_ms"] = 1000 * durMedian(agg, "serve.report")
	if sessions > 0 {
		m["serve.polls_per_session"] = float64(polls) / float64(sessions)
	}
	m["spans.count"] = float64(len(o.spans))
}
