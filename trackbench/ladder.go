package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"disttrack/internal/core"
	"disttrack/internal/core/allq"
	"disttrack/internal/core/engine"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/obs"
	"disttrack/internal/remote"
	"disttrack/internal/runtime"
	"disttrack/internal/service"
	"disttrack/internal/stream"
)

// The traced ladder feeds one fixed-seed stream per tracker kind through
// every layer's public entry point, in the workloads' 512-item cuts:
//
//	engine   kind.New + FeedLocalBatch on one goroutine
//	runtime  runtime.New + SendBatch + Drain (k site goroutines)
//	service  service.New + Server.Ingest + Flush (shards, grouping, perturbation)
//	http     Server.Handler().ServeHTTP on pre-encoded bodies + flush
//	remote   DialNode → in-process ServeRemote over 127.0.0.1, SendBatch + Flush
//
// A layer's cost is the difference between adjacent rungs. hh rungs get
// hh-http's stream (generator connection 0, one tenant); quantile and allq
// rungs get quantile-tcp's frames for their tenant.

// ladderCuts is the number of 512-item cuts per kind.
const ladderCuts = 1024

// queryReps is how many timed calls each query latency is the median of.
const queryReps = 1001

var kinds = []service.Kind{service.KindHH, service.KindQuantile, service.KindAllQ}

// cut is one 512-item unit of a ladder stream in every rung's form.
type cut struct {
	recs   []service.Record
	body   []byte
	groups [sites][]uint64 // raw values per site, in arrival order
	keys   [sites][]uint64 // the same, perturbed as the service would (quantile, allq)
}

// ladderStream is one kind's stream.
type ladderStream struct {
	spec  tenantSpec
	cuts  []cut
	items int
}

// ladderStreams builds the three kinds' streams from the seed.
func ladderStreams(seed int64) map[service.Kind]*ladderStream {
	out := map[service.Kind]*ladderStream{}
	hs := &ladderStream{spec: hhTenant("hh")}
	for _, b := range recordBatches([]tenantSpec{hs.spec}, ladderCuts, batchLen, seed*conns) {
		hs.cuts = append(hs.cuts, cutOf(b.recs, false))
	}
	out[service.KindHH] = hs
	ts := tenantsOf(wQuant)
	frames := frameBatches(ts, 2*ladderCuts, seed*conns)
	for i, t := range ts {
		ls := &ladderStream{spec: t}
		seq := map[uint64]uint32{}
		for _, f := range frames[i:] {
			if f.tenant != t.cfg.Name {
				continue
			}
			recs := make([]service.Record, len(f.values))
			for j, v := range f.values {
				recs[j] = service.Record{Tenant: t.cfg.Name, Site: f.site, Value: v}
			}
			c := cutOf(recs, true)
			for s := range c.groups {
				for _, v := range c.groups[s] {
					c.keys[s] = append(c.keys[s], v<<stream.PerturbBits|uint64(seq[v]))
					seq[v]++
				}
			}
			ls.cuts = append(ls.cuts, c)
		}
		out[t.cfg.Kind] = ls
	}
	for _, ls := range out {
		ls.items = len(ls.cuts) * batchLen
	}
	return out
}

func cutOf(recs []service.Record, perturbed bool) cut {
	c := cut{recs: recs, body: encodeBody(recs)}
	for _, r := range recs {
		c.groups[r.Site] = append(c.groups[r.Site], r.Value)
	}
	if !perturbed {
		c.keys = c.groups
	}
	return c
}

// span is one traced call: the benchmark records one around each call it
// makes into a layer, and one per rung around all of them.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a rung
	Batch  int    `json:"batch"`  // cut index; -1 for a rung or a fence
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; with on unset it records nothing and only
// rung totals are timed.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// do runs f, recording a span when tracing, and returns f's duration.
func (t *tracer) do(name string, parent, batch int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	if t.on {
		t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Batch: batch,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
	return end.Sub(start)
}

// rung opens a rung span; close it with the returned function.
func (t *tracer) rung(name string) (id int, done func() time.Duration) {
	start := time.Now()
	id = -1
	if t.on {
		t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Batch: -1, Start: start.Sub(t.t0).Nanoseconds()})
		id = len(t.spans)
	}
	return id, func() time.Duration {
		end := time.Now()
		if t.on {
			t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
		}
		return end.Sub(start)
	}
}

// ladderResult is the traced ladder's outcome.
type ladderResult struct {
	metrics           []metric
	attempted, failed int64
	problems          []string
	spanFile          string
}

// ladderPass is one pass over every rung; the ladder makes an untraced and
// a traced pass over the same streams.
type ladderPass struct {
	tr    *tracer
	total time.Duration         // sum of rung durations
	m     map[string]float64    // per-layer metrics
	count map[string][5]float64 // engine counts, for the determinism check
	errs  []string
}

func (p *ladderPass) fail(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// newTracker builds a kind's tracker with the service's settings.
func newTracker(spec tenantSpec) (core.Tracker, error) {
	c := spec.cfg
	var tr core.Tracker
	var err error
	switch c.Kind {
	case service.KindHH:
		tr, err = hh.New(hh.Config{K: c.K, Eps: c.Eps, Mode: hh.ModeExact})
	case service.KindQuantile:
		tr, err = quantile.New(quantile.Config{K: c.K, Eps: c.Eps, Phis: c.Phis, Mode: quantile.ModeExact})
	default:
		tr, err = allq.New(allq.Config{K: c.K, Eps: c.Eps, Mode: allq.ModeExact})
	}
	if err != nil {
		return nil, err
	}
	tr.Meter().DisableKindBreakdown()
	return tr, nil
}

// trackerQuery is the kind's answer the service would serve.
func trackerQuery(tr core.Tracker) func() {
	switch t := tr.(type) {
	case *hh.Tracker:
		return func() { _ = t.HeavyHitterEntries(hhPhi) }
	case *quantile.Tracker:
		return func() { _ = t.QuantileAt(0) }
	case *allq.Tracker:
		return func() { _ = t.Quantile(0.9) }
	}
	return func() {}
}

// engineRung feeds the stream to the engine on one goroutine.
func (p *ladderPass) engineRung(ls *ladderStream) {
	k := string(ls.spec.cfg.Kind)
	reg := obs.NewRegistry()
	met := &engine.Metrics{
		Escalations:      reg.NewCounter("escalations", "escalations"),
		SlowPathAcquires: reg.NewCounter("acquires", "slow-path acquisitions"),
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms0)
	id, done := p.tr.rung("engine." + k)
	tr, err := newTracker(ls.spec)
	if err != nil {
		p.fail("engine.%s: %v", k, err)
		return
	}
	tr.SetMetrics(met)
	for i := range ls.cuts {
		for s, keys := range ls.cuts[i].keys {
			if len(keys) > 0 {
				p.tr.do("FeedLocalBatch", id, i, func() { tr.FeedLocalBatch(s, keys) })
			}
		}
	}
	d := done()
	goruntime.ReadMemStats(&ms1)
	p.total += d
	n := float64(ls.items)
	if got := tr.TrueTotal(); got != int64(ls.items) {
		p.fail("engine.%s: TrueTotal %d != fed %d", k, got, ls.items)
	}
	cost := tr.Meter().Total()
	pre := "engine." + k + "."
	p.m[pre+"ns_per_item"] = float64(d.Nanoseconds()) / n
	p.m[pre+"alloc_bytes_per_item"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	p.m[pre+"escalations_per_kitem"] = float64(met.Escalations.Value()) * 1000 / n
	p.m[pre+"slow_path_acquires_per_kitem"] = float64(met.SlowPathAcquires.Value()) * 1000 / n
	p.m[pre+"words_per_item"] = float64(cost.Words) / n
	p.m[pre+"msgs_per_item"] = float64(cost.Msgs) / n
	p.count[k] = [5]float64{float64(cost.Words), float64(cost.Msgs), float64(met.Escalations.Value()),
		float64(met.SlowPathAcquires.Value()), float64(tr.EstTotal())}
	// The kind's query under Quiesce, on the final state.
	q := trackerQuery(tr)
	lat := make(samples, 0, queryReps)
	qid, qdone := p.tr.rung("engine." + k + ".query")
	for r := 0; r < queryReps; r++ {
		lat = append(lat, p.tr.do("Quiesce", qid, -1, func() { tr.Quiesce(q) }))
	}
	p.total += qdone()
	p.m[pre+"query_ns"] = float64(medianDur(lat).Nanoseconds())
}

// runtimeRung feeds the stream through a runtime.Cluster of k site
// goroutines.
func (p *ladderPass) runtimeRung(ls *ladderStream) {
	k := string(ls.spec.cfg.Kind)
	id, done := p.tr.rung("runtime." + k)
	tr, err := newTracker(ls.spec)
	if err != nil {
		p.fail("runtime.%s: %v", k, err)
		return
	}
	clu, err := runtime.New(context.Background(), tr, ls.spec.cfg.K, 128)
	if err != nil {
		p.fail("runtime.%s: %v", k, err)
		return
	}
	var wait time.Duration
	for i := range ls.cuts {
		for s, keys := range ls.cuts[i].keys {
			if len(keys) == 0 {
				continue
			}
			// The cluster takes ownership and recycles the slice.
			xs := append(runtime.GetBatch(len(keys)), keys...)
			wait += p.tr.do("SendBatch", id, i, func() {
				if err := clu.SendBatch(s, xs); err != nil {
					p.fail("runtime.%s: SendBatch: %v", k, err)
				}
			})
		}
	}
	p.tr.do("Drain", id, -1, clu.Drain)
	d := done()
	p.total += d
	if got := clu.Processed(); got != int64(ls.items) {
		p.fail("runtime.%s: processed %d != sent %d", k, got, ls.items)
	}
	n := float64(ls.items)
	pre := "runtime." + k + "."
	p.m[pre+"ns_per_item"] = float64(d.Nanoseconds()) / n
	p.m[pre+"hop_ns_per_item"] = p.m[pre+"ns_per_item"] - p.m["engine."+k+".ns_per_item"]
	p.m[pre+"send_wait_ns_per_item"] = float64(wait.Nanoseconds()) / n
}

// newServer builds an in-process service with the ladder tenant.
func newServer(spec tenantSpec) (*service.Server, *service.Tenant, error) {
	srv := service.New(service.Config{})
	t, err := srv.Registry().Create(spec.cfg)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, t, nil
}

// checkProcessed fails the pass unless the tenant processed exactly n.
func (p *ladderPass) checkProcessed(rung string, t *service.Tenant, n int) {
	if st := t.Stats(); st.Processed != int64(n) {
		p.fail("%s: processed %d != sent %d", rung, st.Processed, n)
	}
}

// serviceRung feeds the stream through Server.Ingest, then runs the query
// rungs on the final state.
func (p *ladderPass) serviceRung(ls *ladderStream) {
	k := string(ls.spec.cfg.Kind)
	id, done := p.tr.rung("service." + k)
	srv, t, err := newServer(ls.spec)
	if err != nil {
		p.fail("service.%s: %v", k, err)
		return
	}
	defer srv.Close()
	var call time.Duration
	for i := range ls.cuts {
		recs := ls.cuts[i].recs
		call += p.tr.do("Server.Ingest", id, i, func() {
			if acc, errs := srv.Ingest(recs); acc != len(recs) {
				p.fail("service.%s: accepted %d of %d: %v", k, acc, len(recs), errs)
			}
		})
	}
	p.tr.do("Server.Flush", id, -1, srv.Flush)
	d := done()
	p.total += d
	p.checkProcessed("service."+k, t, ls.items)
	st := t.Stats()
	n := float64(ls.items)
	pre := "service." + k + "."
	p.m[pre+"ns_per_item"] = float64(d.Nanoseconds()) / n
	p.m[pre+"layer_ns_per_item"] = p.m[pre+"ns_per_item"] - p.m["runtime."+k+".ns_per_item"]
	p.m[pre+"ingest_call_ns_per_item"] = float64(call.Nanoseconds()) / n
	p.m[pre+"batches_per_kitem"] = float64(st.Batches) * 1000 / n
	if ls.spec.cfg.Kind == service.KindHH {
		lat := make(samples, 0, queryReps)
		fid, fdone := p.tr.rung("service.flush_idle")
		for r := 0; r < queryReps; r++ {
			lat = append(lat, p.tr.do("Server.Flush", fid, -1, srv.Flush))
		}
		p.total += fdone()
		p.m["service.flush_idle_us"] = float64(medianDur(lat).Nanoseconds()) / 1e3
	}
	p.queryRung(ls, srv, t)
}

// queryPath is the HTTP query the kind's query rung times.
func queryPath(spec tenantSpec) (path string, q func(t *service.Tenant) error) {
	name := spec.cfg.Name
	switch spec.cfg.Kind {
	case service.KindHH:
		return "/v1/tenants/" + name + "/heavy?phi=" + ftoa(hhPhi),
			func(t *service.Tenant) error { _, err := t.HeavyHitters(hhPhi); return err }
	case service.KindQuantile:
		return "/v1/tenants/" + name + "/quantile?phi=0.5",
			func(t *service.Tenant) error { _, err := t.Quantile(0.5); return err }
	}
	return "/v1/tenants/" + name + "/quantile?phi=0.9",
		func(t *service.Tenant) error { _, err := t.Quantile(0.9); return err }
}

// versionProbe is a query whose ETag carries the tenant's version and
// which does not touch the cache entry queryPath's query reads.
func versionProbe(spec tenantSpec) string {
	name := "/v1/tenants/" + spec.cfg.Name
	switch spec.cfg.Kind {
	case service.KindHH:
		return name + "/freq?item=0"
	case service.KindQuantile:
		return name + "/quantile?phi=0.99"
	}
	return name + "/rank?value=0"
}

// serveGet runs one GET through the handler and returns status and ETag.
func serveGet(h http.Handler, path, inm string) (int, string) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("ETag")
}

// queryRung times the tenant's query at an unchanged version (a snapshot
// cache hit), right after a version bump (a miss), and through the HTTP
// handler; for hh also a 304 from If-None-Match.
func (p *ladderPass) queryRung(ls *ladderStream, srv *service.Server, t *service.Tenant) {
	k := string(ls.spec.cfg.Kind)
	pre := "query." + k + "."
	h := srv.Handler()
	path, q := queryPath(ls.spec)
	timeQ := func(name string, parent int) time.Duration {
		return p.tr.do(name, parent, -1, func() {
			if err := q(t); err != nil {
				p.fail("%s%s: %v", pre, name, err)
			}
		})
	}
	id, done := p.tr.rung(pre + "hit")
	timeQ("Tenant.query", id) // fill the cache
	hit := make(samples, 0, queryReps)
	for r := 0; r < queryReps; r++ {
		hit = append(hit, timeQ("Tenant.query", id))
	}
	p.total += done()
	p.m[pre+"hit_ns"] = float64(medianDur(hit).Nanoseconds())

	hid, hdone := p.tr.rung(pre + "http")
	httpLat := make(samples, 0, queryReps)
	for r := 0; r < queryReps; r++ {
		var code int
		httpLat = append(httpLat, p.tr.do("ServeHTTP", hid, -1, func() { code, _ = serveGet(h, path, "") }))
		if code != http.StatusOK {
			p.fail("%shttp: status %d", pre, code)
			break
		}
	}
	p.total += hdone()
	p.m[pre+"http_ns"] = float64(medianDur(httpLat).Nanoseconds())

	if ls.spec.cfg.Kind == service.KindHH {
		_, tag := serveGet(h, path, "")
		eid, edone := p.tr.rung("query.etag_304")
		lat := make(samples, 0, queryReps)
		for r := 0; r < queryReps; r++ {
			var code int
			lat = append(lat, p.tr.do("ServeHTTP", eid, -1, func() { code, _ = serveGet(h, path, tag) }))
			if code != http.StatusNotModified {
				p.fail("query.etag_304: status %d", code)
				break
			}
		}
		p.total += edone()
		p.m["query.etag_304_ns"] = float64(medianDur(lat).Nanoseconds())
	}

	// Misses: re-ingest cuts (untimed) until the version moves, then time
	// one query. The version is read from the ETag of an uncached query
	// shape, so probing never fills the cache the timed query must miss.
	const misses = 51
	probe := versionProbe(ls.spec)
	mid, mdone := p.tr.rung(pre + "miss")
	miss := make(samples, 0, misses)
	_, tag := serveGet(h, probe, "")
	next := 0
	for r := 0; r < misses; r++ {
		for bumps := 0; ; bumps++ {
			if bumps == ladderCuts {
				p.fail("%smiss: version never moved", pre)
				break
			}
			recs := ls.cuts[next%len(ls.cuts)].recs
			next++
			if acc, errs := srv.Ingest(recs); acc != len(recs) {
				p.fail("%smiss: accepted %d of %d: %v", pre, acc, len(recs), errs)
			}
			srv.Flush()
			if _, cur := serveGet(h, probe, ""); cur != tag {
				tag = cur
				break
			}
		}
		miss = append(miss, timeQ("Tenant.query", mid))
	}
	// Not added to the pass total: the untimed bumps dominate this rung.
	mdone()
	p.m[pre+"miss_ns"] = float64(medianDur(miss).Nanoseconds())
}

// httpRung feeds the stream through the HTTP handler on pre-encoded bodies.
func (p *ladderPass) httpRung(ls *ladderStream) {
	k := string(ls.spec.cfg.Kind)
	reqs := make([]*http.Request, len(ls.cuts))
	for i := range ls.cuts {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(ls.cuts[i].body))
	}
	id, done := p.tr.rung("http." + k)
	srv, t, err := newServer(ls.spec)
	if err != nil {
		p.fail("http.%s: %v", k, err)
		return
	}
	defer srv.Close()
	h := srv.Handler()
	for i, req := range reqs {
		rec := httptest.NewRecorder()
		p.tr.do("ServeHTTP", id, i, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			p.fail("http.%s: ingest status %d: %.200s", k, rec.Code, rec.Body.String())
			break
		}
	}
	p.tr.do("ServeHTTP.flush", id, -1, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/flush", strings.NewReader("{}")))
		if rec.Code != http.StatusOK {
			p.fail("http.%s: flush status %d", k, rec.Code)
		}
	})
	d := done()
	p.total += d
	p.checkProcessed("http."+k, t, ls.items)
	pre := "http." + k + "."
	p.m[pre+"ns_per_item"] = float64(d.Nanoseconds()) / float64(ls.items)
	p.m[pre+"layer_ns_per_item"] = p.m[pre+"ns_per_item"] - p.m["service."+k+".ns_per_item"]
}

// remoteRung feeds the stream as site-node frames over loopback TCP to an
// in-process coordinator.
func (p *ladderPass) remoteRung(ls *ladderStream) {
	k := string(ls.spec.cfg.Kind)
	srv, t, err := newServer(ls.spec)
	if err != nil {
		p.fail("remote.%s: %v", k, err)
		return
	}
	defer srv.Close()
	ri, err := srv.ServeRemote("127.0.0.1:0")
	if err != nil {
		p.fail("remote.%s: %v", k, err)
		return
	}
	id, done := p.tr.rung("remote." + k)
	var cl *remote.NodeClient
	p.tr.do("DialNode", id, -1, func() {
		cl, err = remote.DialNode(ri.Addr(), remote.NodeConfig{Node: "ladder"})
	})
	if err != nil {
		done()
		p.fail("remote.%s: dial: %v", k, err)
		return
	}
	defer cl.Close()
	for i := range ls.cuts {
		for s, vs := range ls.cuts[i].groups {
			if len(vs) == 0 {
				continue
			}
			// The client only reads vs (until it is acknowledged).
			p.tr.do("SendBatch", id, i, func() {
				if err := cl.SendBatch(ls.spec.cfg.Name, s, ls.spec.kind, vs); err != nil {
					p.fail("remote.%s: SendBatch: %v", k, err)
				}
			})
		}
	}
	p.tr.do("Flush", id, -1, func() {
		if err := cl.Flush(); err != nil {
			p.fail("remote.%s: Flush: %v", k, err)
		}
	})
	d := done()
	p.total += d
	p.checkProcessed("remote."+k, t, ls.items)
	if n, reason := cl.Rejected(); n > 0 {
		p.fail("remote.%s: %d frames rejected: %s", k, n, reason)
	}
	up, down := cl.Bytes()
	n := float64(ls.items)
	pre := "remote." + k + "."
	p.m[pre+"ns_per_item"] = float64(d.Nanoseconds()) / n
	p.m[pre+"layer_ns_per_item"] = p.m[pre+"ns_per_item"] - p.m["service."+k+".ns_per_item"]
	p.m[pre+"frame_bytes_per_item"] = float64(up+down) / n
}

// cacheRung replays mixed-serve's tenants, ingest batches and query mix
// in-process: after every ingest batch (and its flush) comes one dashboard
// refresh, the mix's next 10 queries, every 4th with If-None-Match. The
// refresh repeats some answers at an unchanged version, so the snapshot
// cache counters from Server.Metrics() show whether it serves them.
func (p *ladderPass) cacheRung(seed int64) {
	ts := tenantsOf(wMixed)
	const nb, refresh = 200, 10
	bs := recordBatches(ts, nb, mixedBatchLen, seed*conns)
	qs := queryMixes(wMixed, seed)
	srv := service.New(service.Config{})
	defer srv.Close()
	for _, s := range ts {
		if _, err := srv.Registry().Create(s.cfg); err != nil {
			p.fail("query.cache_hit_ratio: %v", err)
			return
		}
	}
	h := srv.Handler()
	etags := map[string]string{}
	qi := 0
	id, done := p.tr.rung("query.cache")
	for i := range bs {
		p.tr.do("Server.Ingest", id, i, func() {
			if acc, errs := srv.Ingest(bs[i].recs); acc != len(bs[i].recs) {
				p.fail("query.cache: accepted %d of %d: %v", acc, len(bs[i].recs), errs)
			}
		})
		p.tr.do("Server.Flush", id, i, srv.Flush)
		for ; qi < (i+1)*refresh; qi++ {
			path, inm := qs[qi%len(qs)], ""
			if qi%mixedETagShare == mixedETagShare-1 {
				inm = etags[path]
			}
			var code int
			var tag string
			p.tr.do("ServeHTTP", id, i, func() { code, tag = serveGet(h, path, inm) })
			switch code {
			case http.StatusOK:
				etags[path] = tag
			case http.StatusNotModified:
			default:
				p.fail("query.cache: GET %s: status %d", path, code)
			}
		}
	}
	p.total += done()
	hits, misses := scrape(srv.Metrics(), "disttrack_query_cache_hits_total"), scrape(srv.Metrics(), "disttrack_query_cache_misses_total")
	if hits+misses == 0 {
		p.fail("query.cache_hit_ratio: no cache lookups")
		return
	}
	p.m["query.cache_hit_ratio"] = hits / (hits + misses)
}

// scrape reads one unlabelled sample from an obs registry's exposition.
func scrape(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// medianDur returns the upper median of s, sorting it in place.
func medianDur(s samples) time.Duration {
	slices.Sort(s)
	return s[len(s)/2]
}

// runPass runs every rung once.
func runPass(streams map[service.Kind]*ladderStream, seed int64, traced bool) *ladderPass {
	p := &ladderPass{tr: &tracer{on: traced, t0: time.Now()}, m: map[string]float64{}, count: map[string][5]float64{}}
	if traced {
		p.tr.spans = make([]span, 0, 1<<17)
	}
	for _, k := range kinds {
		ls := streams[k]
		p.engineRung(ls)
		p.runtimeRung(ls)
		p.serviceRung(ls)
		p.httpRung(ls)
		p.remoteRung(ls)
	}
	p.cacheRung(seed)
	return p
}

// runLadder makes an untraced and a traced pass, checks that the engine
// counts repeat exactly, writes the spans and returns the traced pass's
// per-layer metrics.
func runLadder(seed int64, spanFile string) (*ladderResult, error) {
	streams := ladderStreams(seed)
	plain := runPass(streams, seed, false)
	traced := runPass(streams, seed, true)
	res := &ladderResult{spanFile: spanFile}
	res.problems = append(plain.errs, traced.errs...)
	for _, k := range kinds {
		if a, b := plain.count[string(k)], traced.count[string(k)]; a != b {
			res.problems = append(res.problems, fmt.Sprintf("engine.%s counts differ between two passes of seed %d: %v vs %v", k, seed, a, b))
		}
	}
	traced.m["trace.overhead_ratio"] = traced.total.Seconds() / plain.total.Seconds()
	for _, name := range ladderMetricNames() {
		v, ok := traced.m[name]
		if !ok {
			res.problems = append(res.problems, "per-layer metric "+name+" not measured")
			continue
		}
		res.metrics = append(res.metrics, metric{name: name, unit: ladderUnit(name), value: v})
	}
	res.attempted = int64(len(res.metrics))
	res.failed = int64(len(res.problems))
	if err := writeSpans(spanFile, traced.tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// ladderMetricNames lists every per-layer metric in report order.
func ladderMetricNames() []string {
	var out []string
	per := func(layer string, names ...string) {
		for _, k := range kinds {
			for _, n := range names {
				out = append(out, layer+"."+string(k)+"."+n)
			}
		}
	}
	per("engine", "ns_per_item", "alloc_bytes_per_item", "escalations_per_kitem",
		"slow_path_acquires_per_kitem", "words_per_item", "msgs_per_item", "query_ns")
	per("runtime", "ns_per_item", "hop_ns_per_item", "send_wait_ns_per_item")
	per("service", "ns_per_item", "layer_ns_per_item", "ingest_call_ns_per_item", "batches_per_kitem")
	out = append(out, "service.flush_idle_us")
	per("http", "ns_per_item", "layer_ns_per_item")
	per("remote", "ns_per_item", "layer_ns_per_item", "frame_bytes_per_item")
	per("query", "hit_ns", "miss_ns", "http_ns")
	return append(out, "query.etag_304_ns", "query.cache_hit_ratio", "trace.overhead_ratio")
}

// ladderUnit derives a per-layer metric's unit from its name.
func ladderUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "ns_per_item"), strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "alloc_bytes_per_item"), strings.HasSuffix(name, "frame_bytes_per_item"):
		return "bytes"
	case strings.HasSuffix(name, "words_per_item"):
		return "words"
	case strings.HasSuffix(name, "msgs_per_item"):
		return "msgs"
	case strings.HasSuffix(name, "_per_kitem"):
		return "count/kitem"
	}
	return "ratio"
}

func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkDeterministic is the deterministic-count self-test: two engine runs
// of one seed give identical words, msgs, escalations and slow-path
// acquisitions; another seed changes them.
func checkDeterministic() error {
	counts := func(seed int64) (map[string][5]float64, error) {
		s := ladderStreams(seed)
		p := &ladderPass{tr: &tracer{}, m: map[string]float64{}, count: map[string][5]float64{}}
		for _, k := range kinds {
			p.engineRung(s[k])
		}
		if len(p.errs) > 0 {
			return nil, fmt.Errorf("%s", strings.Join(p.errs, "; "))
		}
		return p.count, nil
	}
	a, err := counts(1)
	if err != nil {
		return err
	}
	b, err := counts(1)
	if err != nil {
		return err
	}
	c, err := counts(2)
	if err != nil {
		return err
	}
	for _, k := range kinds {
		if a[string(k)] != b[string(k)] {
			return fmt.Errorf("deterministic-count self-test: engine.%s seed 1 gave %v then %v", k, a[string(k)], b[string(k)])
		}
		if a[string(k)] == c[string(k)] {
			return fmt.Errorf("deterministic-count self-test: engine.%s seeds 1 and 2 both gave %v", k, a[string(k)])
		}
	}
	return nil
}
