package main

import (
	"math"
	"math/rand"
	"strconv"

	"disttrack/internal/remote"
	"disttrack/internal/service"
)

// The three workloads. Every input is derived from the --seed argument; the
// daemon under test receives only the generated records.
const (
	wHH    = "hh-http"
	wQuant = "quantile-tcp"
	wMixed = "mixed-serve"
)

var workloadNames = []string{wHH, wQuant, wMixed}

const (
	batchLen = 512     // records per ingest request / values per frame
	hhDomain = 1 << 20 // hh value domain
	hhSkew   = 1.2     // Zipf skew of hh values
	sites    = 8       // k of every tenant
	hhEps    = 0.02
	qEps     = 0.05
	hhPhi    = 0.05 // heavy-hitter query and correctness threshold (> hhEps)

	// Latency-like values for the quantile and allq tenants: ln X ~
	// N(6, 1.2²), a few thousand distinct values, well under
	// service.MaxPerturbedValue.
	lnMu, lnSigma = 6.0, 1.2
)

// qPhis are the quantile tenants' tracked quantiles.
var qPhis = []float64{0.5, 0.99}

// tenantSpec is one tenant a workload creates.
type tenantSpec struct {
	cfg  service.TenantConfig
	kind byte // remote.TKind*
}

func hhTenant(name string) tenantSpec {
	return tenantSpec{service.TenantConfig{Name: name, Kind: service.KindHH, K: sites, Eps: hhEps}, remote.TKindHH}
}

func quantTenant(name string) tenantSpec {
	return tenantSpec{service.TenantConfig{Name: name, Kind: service.KindQuantile, K: sites, Eps: qEps, Phis: qPhis}, remote.TKindQuantile}
}

func allqTenant(name string) tenantSpec {
	return tenantSpec{service.TenantConfig{Name: name, Kind: service.KindAllQ, K: sites, Eps: qEps}, remote.TKindAllQ}
}

// tenantsOf lists the tenants each workload creates.
func tenantsOf(workload string) []tenantSpec {
	switch workload {
	case wHH:
		return []tenantSpec{hhTenant("hh0"), hhTenant("hh1"), hhTenant("hh2"), hhTenant("hh3")}
	case wQuant:
		return []tenantSpec{quantTenant("q"), allqTenant("aq")}
	default:
		return []tenantSpec{hhTenant("mh"), quantTenant("mq"), allqTenant("ma")}
	}
}

// valueGen draws one kind's values from a seeded source.
type valueGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newValueGen(seed int64) *valueGen {
	rng := rand.New(rand.NewSource(seed))
	return &valueGen{rng: rng, zipf: rand.NewZipf(rng, hhSkew, 1, hhDomain-1)}
}

func (g *valueGen) hh() uint64 { return g.zipf.Uint64() }

func (g *valueGen) latency() uint64 {
	return uint64(math.Exp(lnMu + lnSigma*g.rng.NormFloat64()))
}

// value draws a value for a tenant of the given kind.
func (g *valueGen) value(kind service.Kind) uint64 {
	if kind == service.KindHH {
		return g.hh()
	}
	return g.latency()
}

// batch is one pre-generated ingest unit: the records (for the oracle and
// the in-process rungs) and, for HTTP, the pre-encoded request body.
type batch struct {
	recs []service.Record
	body []byte
	// frame form (quantile-tcp): one (tenant, site) group of values.
	tenant string
	site   int
	kind   byte
	values []uint64
}

// size is the number of records or values in the batch.
func (b *batch) size() int { return len(b.recs) + len(b.values) }

// encodeBody renders recs as a /v1/ingest body without reflection.
func encodeBody(recs []service.Record) []byte {
	b := make([]byte, 0, len(recs)*40+16)
	b = append(b, `{"records":[`...)
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"tenant":`...)
		b = strconv.AppendQuote(b, r.Tenant)
		b = append(b, `,"site":`...)
		b = strconv.AppendInt(b, int64(r.Site), 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendUint(b, r.Value, 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// recordBatches generates n HTTP batches of size records each, every record
// picking a tenant of ts and a site uniformly at random.
func recordBatches(ts []tenantSpec, n, size int, seed int64) []batch {
	g := newValueGen(seed)
	out := make([]batch, n)
	for i := range out {
		recs := make([]service.Record, size)
		for j := range recs {
			t := ts[g.rng.Intn(len(ts))].cfg
			recs[j] = service.Record{Tenant: t.Name, Site: g.rng.Intn(sites), Value: g.value(t.Kind)}
		}
		out[i] = batch{recs: recs, body: encodeBody(recs)}
	}
	return out
}

// frameBatches generates n value frames cycling over ts and, per tenant,
// over the sites round-robin — the shape a fleet of site nodes sends.
func frameBatches(ts []tenantSpec, n int, seed int64) []batch {
	g := newValueGen(seed)
	out := make([]batch, n)
	for i := range out {
		t := ts[i%len(ts)]
		vs := make([]uint64, batchLen)
		for j := range vs {
			vs[j] = g.value(t.cfg.Kind)
		}
		out[i] = batch{tenant: t.cfg.Name, site: (i / len(ts)) % sites, kind: t.kind, values: vs}
	}
	return out
}
