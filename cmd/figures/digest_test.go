package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pathsel/internal/experiments"
)

// pinnedOutputs are the sha256 sums of a quick-preset, seed-1 run:
// its stdout report and every .dat file it writes under -out. They
// are the command's behavioural contract; refactors of the exhibit
// wiring must leave them untouched.
//
// After an intended change to an exhibit, run
//
//	go test -run TestPinnedQuickRun -v ./cmd/figures
//
// on amd64, check that the change in outputs is the one intended, and
// paste the printed map here.
var pinnedOutputs = map[string]string{
	"figure1-d2-na.dat":                                "703575e1e8b583aa48de30e02e4443147a9a1e02e748ba9031ec8c892aa4f6db",
	"figure1-d2.dat":                                   "7d6ab2e423c1ef42ebcaa32e109bbf4c5c865577f5f3ae502d5331c1dfa288bd",
	"figure1-uw1.dat":                                  "8b00070992feaa7e026baaf367e60cdf62074725e7cbc5f9825c30b36b8f2305",
	"figure1-uw3.dat":                                  "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"figure10-0000-0600.dat":                           "e70c9be2c42f77cd102dbc1f84dbed13945814603f4f59f1fda44d7d0520ece9",
	"figure10-0600-1200.dat":                           "a460fd02ce85e8e71633d9526f53996a2017e0c5f87fc335813bf611ea0394bc",
	"figure10-1200-1800.dat":                           "477606f692c15dfd74f737f97eca25625e58f0f3e596e4c6af6c862bc05e9e51",
	"figure10-1800-2400.dat":                           "58814147eab507aaa1d42668cbc7989be81e616ade0d020fb0f26e3b9ab4ee5c",
	"figure10-weekend.dat":                             "1a8ca14c59dd80b6d00e5b8353e2e6386ba3118c3e57be4c619f1772b23f0707",
	"figure11-pair-averaged-uw4-a.dat":                 "d46c8b7d419b197d01f3e5aedb4c55dae8b3a3be92197ae9b3d4629e5e0dc54e",
	"figure11-unaveraged-uw4-a.dat":                    "c7b9f024a2726b71a0dcea1e574d56a7bcd5bbc7595efa2d01cdd91d60844777",
	"figure11-uw4-b.dat":                               "c8449cb75742ce298a728259d734a70c3b7578961c755c5c246844b2bad4b548",
	"figure12-all-uw3-hosts.dat":                       "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"figure12-without--top-ten.dat":                    "a53f81ba66362239d3ee2522d1eb72ea686024fa67b03e5dc73c43cbb8b5e746",
	"figure13-normalized-improvement-contribution.dat": "e98532d1952ba25d50df5c6cedf1cd837d2877a990a9f2c73fdbe54d4aaa0654",
	"figure14.dat":                                     "f308c492bc554f341b507bb95baeb179725003b9c23f0214c7c5d42ab4a697f0",
	"figure15-mean-round-trip.dat":                     "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"figure15-propagation-delay.dat":                   "9799b845495c4f15069b1d26dc6ffa175947a5c3024976fe01d95079017681c1",
	"figure16.dat":                                     "7d7dc3b4f09fc5d9caa6911d552b227a2103fe539f69c5f03b3e87b9b3e2e06a",
	"figure2-d2-na.dat":                                "943667e8f745eedfbadf1c119871490ddb7eeafe131fc171d7dab572dfd340b0",
	"figure2-d2.dat":                                   "8f863a31f96199d3206e86fad0f929583447df135e567c896f22d5cd9b830c50",
	"figure2-uw1.dat":                                  "626848f9c1f4aabe27da510cc546031ca1f72e6e2345f0f65d7beb9751e139e0",
	"figure2-uw3.dat":                                  "ebaa98adfd25cdaeb8631435985433345bf0d3c2da952735ec68a81c1b79fd40",
	"figure3-d2-na.dat":                                "446b45c5cb5eca7d2b0e0c7a17f20aaba7112142746f19f8200df4397d7e76d8",
	"figure3-d2.dat":                                   "bcf4b2075efe7f556d33207d5bee273dac3fb3ffa556627bf8a2000bd5b409b2",
	"figure3-uw1.dat":                                  "693242e6bc2ca7e4ed1e8da1974db3af9481f2c64761471d358ac91dbd5a62f0",
	"figure3-uw3.dat":                                  "53dedabce9907f8afdc1057097406afb96bed91aba48e4257e31bb6817db2d8e",
	"figure4-n2-na-optimistic.dat":                     "8cb597c94c5ae2c3abeeaaae62c47b4123d2cd371b7e048ab478663d8b68fee0",
	"figure4-n2-na-pessimistic.dat":                    "faea05f477d362c75d13dfd1f800ab021efa4087c9c8b7009c59863bdcc911fb",
	"figure4-n2-optimistic.dat":                        "b50d0b87a78eb1d24f5ed03cf7f06a5cb41b4d65eae2988b2f4888fc6765f8cd",
	"figure4-n2-pessimistic.dat":                       "1396f534c759dd4a79c38fccb2838c344386f093174392d286703682420104f7",
	"figure5-n2-na-optimistic.dat":                     "fcd00627aab9484940ce31dc7e954b2412c261fc6799aceb8fbd0ae08ea4e461",
	"figure5-n2-na-pessimistic.dat":                    "144c98ccc4863c20330e2f4d224aa0e2f353b40740688a099fa02d86037e71a6",
	"figure5-n2-optimistic.dat":                        "c413780634ee7cf7a42af595aec4e8cf40d021ee2addcf04e558976d7890e5b6",
	"figure5-n2-pessimistic.dat":                       "8d7763dd6ee7a7a7cad611687e6d40e4452cb6284604780b8dff4253f5577d2b",
	"figure6-mean--one-hop.dat":                        "703575e1e8b583aa48de30e02e4443147a9a1e02e748ba9031ec8c892aa4f6db",
	"figure6-median--one-hop.dat":                      "194d0b3bffc46cc210a2d9b534a4293e738cafaf397d54680f4a151318d73027",
	"figure7.dat":                                      "cf3a41c17d3a37579c5310d0c532e0ad4f9e7cc8ca2e914213ee7e1004182056",
	"figure8.dat":                                      "4c25fb310b72aade75eee672346a510e94d8c5d4eeb9a9f154e8c7aac8ba3614",
	"figure9-0000-0600.dat":                            "b392d094d4ad1b64f84bce092643574a658c71cf0dbbfc330c6acf746bb3d652",
	"figure9-0600-1200.dat":                            "3ad25e6195c4ae5e010f405c0e65d3f701f28fe67f0a59b76bbcf001aa7aeeea",
	"figure9-1200-1800.dat":                            "c7dd921d613afa28106f44ea409b8ad126456119af3c4cbb3d0b2ce494f20fcf",
	"figure9-1800-2400.dat":                            "fa7552e2213481e9ce9e862a1b3470d333d13198d23db7d70ea1164ced4b3f17",
	"figure9-weekend.dat":                              "b04831fd951b9b08e01e553f5d6dcd3f7468c3066ac8ff82c114ad119d514302",
	"multipath-disjointness.dat":                       "48c46664c3baee6e2cf1d553c7e0b82fcc706449925a084c13cb41bcc6b44ae8",
	"multipath-kcurve.dat":                             "bdbb51542076bff4182e7fc1977b2c500947dc1eb951ba14a0c0c47ea26ad500",
	"overlay-pair-rtt-default.dat":                     "129b73ad28aaf9be5c6e9ca7325ae0a0e47d492410ef0507b642668c654c2ac7",
	"overlay-pair-rtt-optimal.dat":                     "1e1e013b41f4b04ffcdcb00752d91e2e5aff8a41631a9f4adf714b4430f60dbc",
	"overlay-pair-rtt-overlay.dat":                     "6a87a8def8a209d09289c5f4c440608aaf5ab6627f074c7da01999a2d41f9e5d",
	"overlay-reaction-b0-5.dat":                        "83b8308ad91c588039fc5f077ed80f124889e51edc760270b434267284f7e5d7",
	"overlay-reaction-b2.dat":                          "c281160a6316fb5c97e551f91acc0106d2533c0732b8ade952d7935550431b72",
	"overlay-reaction-b8.dat":                          "b5f70c21e52ab5c4f7677543937083bf794971ada4fb3518e5d125f0ed68349f",
	"overlay-summary.dat":                              "5c3e477ffdc9aa4a5cf55fc0e8a019a516c83b0cf625cf9f31151cc59c583042",
	"packetlevel-pairs.dat":                            "b588c33c9a35f97ef7283960952619d44fd48b9007d3ebd9219d410d703de0da",
	"packetlevel-regimes.dat":                          "4895823c6c125bac7af426523a0d76b474c201e35b7b0cb50ce6f73df11a2fa5",
	"stdout":                                           "aa0e8c7fb4b57b23458094b6d411756d96ff774439b168538e3e321e2b9ff5e8",
}

func TestPinnedQuickRun(t *testing.T) {
	// The outputs carry floats computed with math.Exp and friends, which
	// are assembly on amd64 and may differ in the last bit elsewhere.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("builds the quick suite and runs every exhibit")
	}
	dir := t.TempDir()
	stdout, err := captureStdout(t, func() error {
		return run(experiments.Config{Seed: 1, Preset: experiments.Quick}, dir, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{"stdout": digest(stdout)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = digest(b)
	}

	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "\t%q: %q,\n", n, got[n])
		if want, ok := pinnedOutputs[n]; !ok {
			t.Errorf("%s: not pinned", n)
		} else if got[n] != want {
			t.Errorf("%s: digest %s, pinned %s", n, got[n], want)
		}
	}
	for n := range pinnedOutputs {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: pinned but no longer written", n)
		}
	}
	t.Logf("digests:\n%s", b.String())
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := fn()
	w.Close()
	b := <-out
	r.Close()
	return b, runErr
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
