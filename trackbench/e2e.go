package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/remote"
)

const (
	conns     = 2    // generator connections (the machine has 2 vCPUs)
	setupReps = 15   // set-ups per run; setup_s is their median
	poolLen   = 1024 // pre-generated batches per closed-loop connection

	// mixed-serve's fixed schedule, well below hh-http's saturation. Small
	// batches leave some tracker versions unchanged across queries, so the
	// snapshot cache and ETags see hits (about 8% of lookups at seed 5).
	mixedBatchLen  = 64  // records per ingest request
	mixedBatchRate = 200 // ingest batches/s (12,800 records/s)
	mixedQueryRate = 120 // queries/s: the query connection stays mostly idle
	mixedFresh     = 4   // a fence after every 4th ingest batch
	mixedETagShare = 4   // every 4th query carries If-None-Match
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int // samples behind a percentile (0 if not a percentile)
}

// e2eResult is one end-to-end run's outcome.
type e2eResult struct {
	metrics   []metric
	attempted int64
	failed    int64
	problems  []string
	lateP99   float64 // ms; open loop only (mixed-serve)
	lateN     int
	cpuShare  float64
	skipped   []string // ungated percentiles with too few samples
}

// conn is one generator connection and everything it measured.
type conn struct {
	http   *http.Client
	node   *remote.NodeClient
	base   string
	pool   []batch
	counts []int64 // how often each pool batch was accepted
	next   int     // pool batches sent, cycling

	ingest, fresh, query, late series
	records                    int64 // records accepted inside the window
	bodyBytes                  int64 // HTTP ingest body bytes inside the window
	attempted, failed          int64
	errs                       []string
	etags                      map[string]string
}

func (c *conn) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// send pushes one batch (HTTP body or TCP frame) and reports acceptance.
func (c *conn) send(b *batch) bool {
	c.attempted++
	if c.node != nil {
		if err := c.node.SendBatch(b.tenant, b.site, b.kind, b.values); err != nil {
			c.fail(err)
			return false
		}
		return true
	}
	status, raw, err := postJSON(c.http, c.base+"/v1/ingest", b.body)
	if err != nil {
		c.fail(err)
		return false
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if status != http.StatusOK {
		c.fail(fmt.Errorf("ingest: status %d: %.200s", status, raw))
		return false
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.Accepted != len(b.recs) {
		c.fail(fmt.Errorf("ingest: accepted %d of %d: %.200s", out.Accepted, len(b.recs), raw))
		return false
	}
	return true
}

// sendNext sends the next pool batch; window marks it as measured.
func (c *conn) sendNext(window bool) {
	i := c.next % len(c.pool)
	b := &c.pool[i]
	c.next++
	if c.send(b) {
		c.counts[i]++
		if window {
			c.records += int64(b.size())
			c.bodyBytes += int64(len(b.body))
		}
	}
}

// fence issues the visibility fence: the TCP flush barrier or POST
// /v1/flush.
func (c *conn) fence() bool {
	c.attempted++
	if c.node != nil {
		if err := c.node.Flush(); err != nil {
			c.fail(err)
			return false
		}
		return true
	}
	status, raw, err := postJSON(c.http, c.base+"/v1/flush", []byte("{}"))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("flush: status %d: %.200s", status, raw)
	}
	if err != nil {
		c.fail(err)
		return false
	}
	return true
}

// get issues one query; with conditional set it sends the last ETag seen
// for the URL. A 304 is a success.
func (c *conn) get(path string, conditional bool) bool {
	c.attempted++
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		c.fail(err)
		return false
	}
	if tag := c.etags[path]; conditional && tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.fail(err)
		return false
	}
	var sink json.RawMessage
	derr := json.NewDecoder(resp.Body).Decode(&sink)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return true
	case resp.StatusCode != http.StatusOK:
		c.fail(fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, sink))
		return false
	case derr != nil:
		c.fail(fmt.Errorf("GET %s: %v", path, derr))
		return false
	}
	c.etags[path] = resp.Header.Get("ETag")
	return true
}

// closedLoop sends pool batches back to back while left stays positive;
// the connections share left, so they finish together. Between batches it
// fences and queries on a wall-clock cadence, so probe counts do not
// depend on how fast ingest runs.
func (c *conn) closedLoop(start time.Time, left *atomic.Int64, cad cadence, queries []string) {
	nextFence, nextQuery := start.Add(cad.fence), start.Add(cad.query/2)
	for qi := 0; left.Add(-1) >= 0; {
		t0 := time.Now()
		if c.node != nil && !t0.Before(nextFence) {
			// NodeClient.Flush waits for the connection's whole in-flight
			// window, whose depth at a random moment varies from 0 to 64
			// frames. Fence it first, untimed, so the probe measures one
			// batch's visibility.
			c.fence()
			t0 = time.Now()
		}
		c.sendNext(true)
		c.ingest.add(t0, time.Since(t0))
		if !time.Now().Before(nextFence) {
			nextFence = nextFence.Add(cad.fence)
			if c.fence() {
				c.fresh.add(t0, time.Since(t0))
			}
		}
		if t1 := time.Now(); !t1.Before(nextQuery) {
			nextQuery = nextQuery.Add(cad.query)
			if c.get(queries[qi%len(queries)], false) {
				c.query.add(t1, time.Since(t1))
			}
			qi++
		}
	}
}

// cadence is a closed-loop connection's probe schedule.
type cadence struct{ fence, query time.Duration }

// closedRate sizes a closed-loop run: it sends --seconds times this many
// batches over all connections, so a run takes about --seconds on
// the reference machine and every run of a seed ingests the same stream
// whatever its speed. Throughput is reported at this fixed input size.
var closedRate = map[string]int{
	wHH:    1400, // 512-record batches/s
	wQuant: 1000, // 512-value frames/s
}

// closedCadence gives every time slice of a 30 s run over 1000 query
// samples (for p99) and over 100 fences (for p90). quantile-tcp's probes
// cost more (a drained window per fence, a quiescent engine under heavy
// ingest per query), so they come less often.
var closedCadence = map[string]cadence{
	wHH:    {fence: 20 * time.Millisecond, query: 10 * time.Millisecond},
	wQuant: {fence: 150 * time.Millisecond, query: 15 * time.Millisecond},
}

// openLoop runs op(i, from) for i < n on a fixed schedule from start and
// records how late each operation began. from is when operation i became
// due, or when operation i−1 finished if that was later: a stall of the
// system under test delays every operation queued behind it, and that wait
// counts, while the sleep timer's own overshoot on an idle connection (up
// to milliseconds on Linux) does not.
func openLoop(n int, interval time.Duration, start time.Time, late *series, op func(i int, from time.Time)) {
	var prevDone time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late.add(due, time.Since(due))
		from := due
		if prevDone.After(due) {
			from = prevDone
		}
		op(i, from)
		prevDone = time.Now()
	}
}

// queryMixes lists the query paths each workload issues.
func queryMixes(w string, seed int64) []string {
	switch w {
	case wHH:
		var qs []string
		for _, t := range tenantsOf(w) {
			qs = append(qs, "/v1/tenants/"+t.cfg.Name+"/heavy?phi="+ftoa(hhPhi))
		}
		return qs
	case wQuant:
		// Rank answers are never cached, so every probe is one quiescent
		// read of the allq engine under ingest: one latency mode, not a
		// mixture of cache hits and misses.
		g := newValueGen(seed)
		var qs []string
		for i := 0; i < 16; i++ {
			qs = append(qs, "/v1/tenants/aq/rank?value="+strconv.FormatUint(g.latency(), 10))
		}
		return qs
	}
	// mixed-serve: a dashboard that polls a few answers repeatedly, plus
	// point lookups (freq, rank) with varying arguments.
	g := newValueGen(seed)
	var qs []string
	for i := 0; i < 8; i++ {
		qs = append(qs,
			"/v1/tenants/mh/heavy?phi="+ftoa(hhPhi),
			"/v1/tenants/mq/quantile?phi=0.99",
			"/v1/tenants/ma/quantile?phi=0.9",
			"/v1/tenants/mh/freq?item="+strconv.FormatUint(g.hh()%16, 10),
			"/v1/tenants/mh/heavy?phi="+ftoa(hhPhi),
			"/v1/tenants/mq/quantile?phi=0.5",
			"/v1/tenants/mq/quantile?phi=0.99",
			"/v1/tenants/ma/rank?value="+strconv.FormatUint(g.latency(), 10),
			"/v1/tenants/ma/quantile?phi=0.9",
			"/v1/tenants/mh/heavy?phi="+ftoa(hhPhi),
		)
	}
	return qs
}

// runE2E runs one end-to-end measurement of workload w.
func runE2E(bin, w string, seed int64, seconds int) (*e2eResult, error) {
	ts := tenantsOf(w)
	// Inputs first, before any clock starts: every body and frame is
	// generated and encoded here, never in the send loop.
	cs := make([]*conn, conns)
	for i := range cs {
		var pool []batch
		switch w {
		case wHH:
			pool = recordBatches(ts, poolLen, batchLen, seed*conns+int64(i))
		case wQuant:
			pool = frameBatches(ts, poolLen, seed*conns+int64(i))
		case wMixed:
			if i == 0 {
				// The whole schedule, plus one warm-up batch in front.
				pool = recordBatches(ts, mixedBatchRate*seconds+1, mixedBatchLen, seed*conns)
			}
		}
		cs[i] = &conn{http: newClient(), pool: pool, counts: make([]int64, len(pool)), etags: map[string]string{}}
	}
	defer func() {
		for _, c := range cs {
			c.http.CloseIdleConnections()
		}
	}()
	queries := queryMixes(w, seed)

	// Set up several times; keep the last daemon.
	var setups []float64
	var d *daemon
	var nodes []*remote.NodeClient
	for r := 0; r < setupReps; r++ {
		if d != nil {
			closeNodes(nodes)
			d.stop()
		}
		var took time.Duration
		var err error
		d, nodes, took, err = setUp(bin, w, conns)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	defer closeNodes(nodes)
	for i, c := range cs {
		c.base = d.base
		if nodes != nil {
			c.node = nodes[i]
		}
	}

	// Warm-up outside the window: every tenant holds data before the first
	// query, so no query can fail for lack of it.
	warm := 1
	if w == wQuant {
		warm = len(ts)
	}
	for _, c := range cs {
		if len(c.pool) == 0 {
			continue
		}
		for i := 0; i < warm; i++ {
			c.sendNext(false)
		}
		c.fence()
	}

	// trackd is running at the default priority; from here on the
	// generator runs above it, so it sends on time and reads its clocks
	// promptly while trackd keeps both CPUs busy.
	if err := prioritize(); err != nil {
		fmt.Fprintln(os.Stderr, "trackbench: cannot raise generator priority:", err)
	}

	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	switch w {
	case wHH, wQuant:
		var left atomic.Int64
		left.Store(int64(closedRate[w] * seconds))
		for _, c := range cs {
			wg.Add(1)
			go func(c *conn) {
				defer wg.Done()
				c.closedLoop(start, &left, closedCadence[w], queries)
			}(c)
		}
	case wMixed:
		ing, qc := cs[0], cs[1]
		wg.Add(2)
		go func() {
			defer wg.Done()
			openLoop(mixedBatchRate*seconds, time.Second/mixedBatchRate, start, &ing.late, func(i int, from time.Time) {
				ing.sendNext(true)
				ing.ingest.add(from, time.Since(from))
				if i%mixedFresh == mixedFresh-1 && ing.fence() {
					ing.fresh.add(from, time.Since(from))
				}
			})
		}()
		go func() {
			defer wg.Done()
			openLoop(mixedQueryRate*seconds, time.Second/mixedQueryRate, start, &qc.late, func(i int, from time.Time) {
				if qc.get(queries[i%len(queries)], i%mixedETagShare == mixedETagShare-1) {
					qc.query.add(from, time.Since(from))
				}
			})
		}()
	}
	wg.Wait()
	sendPhase := time.Since(start)
	// The final fence closes the window: records count once visible.
	final := cs[0]
	if nodes != nil {
		for _, c := range cs[1:] {
			c.fence()
		}
	}
	final.fence()
	elapsed := time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	genCPU := selfCPU() - gen0
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}

	res := &e2eResult{}
	var all conn
	for _, c := range cs {
		all.ingest.merge(&c.ingest)
		all.fresh.merge(&c.fresh)
		all.query.merge(&c.query)
		all.late.merge(&c.late)
		all.records += c.records
		all.bodyBytes += c.bodyBytes
		res.attempted += c.attempted
		res.failed += c.failed
		res.problems = append(res.problems, c.errs...)
	}
	if all.records == 0 {
		return nil, fmt.Errorf("no records accepted: %v", res.problems)
	}
	trackdCPU := cpu1 - cpu0
	res.cpuShare = genCPU.Seconds() / (genCPU + trackdCPU).Seconds()
	// Percentile slices cut the sending phase (mixed-serve: the schedule).
	span := sendPhase
	if w == wMixed {
		span = time.Duration(seconds) * time.Second
	}
	if w == wMixed {
		if v, err := all.late.slicedPct("gen.late_p99_ms", 0.99, start, span); err == nil {
			res.lateP99, res.lateN = v, len(all.late.d)
		}
	}

	// Correctness gate: exactly-once totals and ε answers against the
	// oracle over exactly what was accepted.
	tr := newTruth(ts)
	for _, c := range cs {
		for i := range c.pool {
			for n := c.counts[i]; n > 0; n-- {
				tr.add(&c.pool[i])
			}
		}
		if c.node != nil {
			if n, reason := c.node.Rejected(); n > 0 {
				res.failed += n
				res.problems = append(res.problems, fmt.Sprintf("%d frames rejected: %s", n, reason))
			}
		}
	}
	checker := newClient()
	defer checker.CloseIdleConnections()
	bad := tr.verify(checker, d.base, ts)
	res.attempted += int64(len(ts))
	res.failed += int64(len(bad))
	res.problems = append(res.problems, bad...)

	var words, processed int64
	for _, t := range ts {
		st, err := tenantStats(checker, d.base, t.cfg.Name)
		if err != nil {
			return nil, err
		}
		words += st.Words
		processed += st.Processed
	}
	var wire float64
	if nodes != nil {
		var b, sent int64
		for _, c := range cs {
			up, down := c.node.Bytes()
			b += up + down
			for _, n := range c.counts {
				sent += n * int64(c.pool[0].size())
			}
		}
		wire = float64(b) / float64(sent)
	} else {
		wire = float64(all.bodyBytes) / float64(all.records)
	}

	add := func(name, unit string, v float64, n int) {
		res.metrics = append(res.metrics, metric{name: name, unit: unit, value: v, n: n})
	}
	pct := func(name string, s *series, p float64) error {
		v, err := s.slicedPct(name, p, start, span)
		if err != nil {
			return err
		}
		add(name, "ms", v, len(s.d))
		return nil
	}
	add("ingest_rps", "records/s", float64(all.records)/elapsed.Seconds(), 0)
	add("cpu_ns_per_item", "ns", float64(trackdCPU.Nanoseconds())/float64(all.records), 0)
	for _, p := range []struct {
		name string
		s    *series
		p    float64
	}{
		{"ingest_p50_ms", &all.ingest, 0.5}, {"ingest_p99_ms", &all.ingest, 0.99},
		{"query_p50_ms", &all.query, 0.5}, {"query_p99_ms", &all.query, 0.99},
		{"fresh_p50_ms", &all.fresh, 0.5}, {"fresh_p90_ms", &all.fresh, 0.9},
	} {
		if err := pct(p.name, p.s, p.p); err != nil {
			if !ungated[p.name] {
				return nil, err
			}
			// An ungated metric is left out rather than failing the run.
			res.skipped = append(res.skipped, err.Error())
		}
	}
	add("words_per_item", "words", float64(words)/float64(processed), 0)
	add("wire_bytes_per_item", "bytes", wire, 0)
	add("setup_s", "s", median(setups), len(setups))
	add("peak_rss_mb", "MiB", rss, 0)
	return res, nil
}
