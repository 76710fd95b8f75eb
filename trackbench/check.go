package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"disttrack/internal/oracle"
	"disttrack/internal/service"
)

// truth shadows, per tenant, exactly the records the generator had
// accepted: internal/oracle holds the exact multiset, sent the count.
type truth struct {
	or   map[string]*oracle.Oracle
	sent map[string]int64
}

func newTruth(ts []tenantSpec) *truth {
	t := &truth{or: map[string]*oracle.Oracle{}, sent: map[string]int64{}}
	for _, s := range ts {
		t.or[s.cfg.Name] = oracle.New()
	}
	return t
}

// add records one accepted batch (records or a frame).
func (t *truth) add(b *batch) {
	for _, r := range b.recs {
		t.or[r.Tenant].Add(r.Value)
		t.sent[r.Tenant]++
	}
	if b.values != nil {
		o := t.or[b.tenant]
		for _, v := range b.values {
			o.Add(v)
		}
		t.sent[b.tenant] += int64(len(b.values))
	}
}

// getJSON GETs base+path and decodes a 200 answer into out.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// tenantStats reads the stats endpoint of one tenant.
func tenantStats(c *http.Client, base, name string) (service.TenantStats, error) {
	var st service.TenantStats
	err := getJSON(c, base+"/v1/tenants/"+name, &st)
	return st, err
}

// verify is the correctness gate, run after the final fence: for every
// tenant, processed must equal what was sent, and the final answers must
// meet the ε contract against the oracle. It returns one message per
// violation; a query that fails outright is a violation too.
func (t *truth) verify(c *http.Client, base string, ts []tenantSpec) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	for _, s := range ts {
		name, eps := s.cfg.Name, s.cfg.Eps
		o := t.or[name]
		st, err := tenantStats(c, base, name)
		if err != nil {
			fail("%s: stats: %v", name, err)
			continue
		}
		if st.Processed != t.sent[name] {
			fail("%s: processed %d != sent %d", name, st.Processed, t.sent[name])
		}
		n := float64(o.Len())
		if n == 0 {
			fail("%s: no records sent", name)
			continue
		}
		tu := base + "/v1/tenants/" + name
		switch s.cfg.Kind {
		case service.KindHH:
			var ans struct {
				Items []service.Entry `json:"items"`
			}
			if err := getJSON(c, tu+"/heavy?phi="+ftoa(hhPhi), &ans); err != nil {
				fail("%s: heavy: %v", name, err)
				continue
			}
			got := map[uint64]bool{}
			for _, e := range ans.Items {
				got[e.Item] = true
				if float64(o.Count(e.Item)) < (hhPhi-eps)*n {
					fail("%s: reported %d with true count %d < (φ−ε)·n = %.0f", name, e.Item, o.Count(e.Item), (hhPhi-eps)*n)
				}
			}
			for _, x := range o.HeavyHitters(hhPhi) {
				if !got[x] {
					fail("%s: true %g-heavy item %d (count %d of %.0f) not reported", name, hhPhi, x, o.Count(x), n)
				}
			}
		case service.KindQuantile, service.KindAllQ:
			phis := qPhis
			if s.cfg.Kind == service.KindAllQ {
				phis = []float64{0.1, 0.5, 0.9, 0.99}
			}
			for _, phi := range phis {
				var ans struct {
					Value uint64 `json:"value"`
				}
				if err := getJSON(c, tu+"/quantile?phi="+ftoa(phi), &ans); err != nil {
					fail("%s: quantile %g: %v", name, phi, err)
					continue
				}
				if e := o.QuantileRankError(ans.Value, phi); e > eps {
					fail("%s: quantile %g answered %d with rank error %.4f > ε=%g", name, phi, ans.Value, e, eps)
				}
				if s.cfg.Kind != service.KindAllQ {
					continue
				}
				v := o.Quantile(phi)
				var r struct {
					Rank int64 `json:"rank"`
				}
				if err := getJSON(c, tu+"/rank?value="+strconv.FormatUint(v, 10), &r); err != nil {
					fail("%s: rank %d: %v", name, v, err)
					continue
				}
				if d := float64(r.Rank - o.Rank(v)); d > eps*n || -d > eps*n {
					fail("%s: rank(%d) = %d, true %d, error %.0f > ε·n = %.0f", name, v, r.Rank, o.Rank(v), d, eps*n)
				}
			}
		}
	}
	return bad
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
