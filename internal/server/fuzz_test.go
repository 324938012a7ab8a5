package server

import (
	"net/http"
	"net/url"
	"testing"

	"pathsel/internal/experiments"
)

// FuzzSuiteQuery drives the ?seed/?preset parser with arbitrary raw
// queries: whatever suiteConfigFrom accepts, the figure endpoint's CDF
// links must parse back to the same configuration.
func FuzzSuiteQuery(f *testing.F) {
	f.Add("")
	f.Add("seed=5&preset=quick")
	f.Add("preset=full&seed=-7")
	f.Add("seed=+5")
	f.Add("seed=%20%35")
	f.Add("seed=&seed=9&preset=scale")
	f.Add("preset=quick&other=1")
	defaults := experiments.Config{Seed: 3, Preset: experiments.Full}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{Path: "/api/figure/1", RawQuery: raw}}
		cfg, err := suiteConfigFrom(defaults, r)
		if err != nil {
			return
		}
		link := "/api/cdf/1/uw1" + cdfQuery(r, cfg)
		u, err := url.Parse(link)
		if err != nil {
			t.Fatalf("query %q: link %q does not parse: %v", raw, link, err)
		}
		back, err := suiteConfigFrom(defaults, &http.Request{URL: u})
		if err != nil {
			t.Fatalf("query %q: link %q is rejected: %v", raw, link, err)
		}
		if back != cfg {
			t.Fatalf("query %q resolves to %+v, its link %q to %+v", raw, cfg, link, back)
		}
	})
}
