package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// pinnedBodies are the sha256 sums of every body the handler serves
// for the quick preset, seed 1: the index page, Tables 1-3, Figures
// 1-16, the CDF behind every series a figure links, and the overlay,
// multipath and packet-level exhibits. Refactors of the serving path
// or the exhibit drivers must leave them untouched.
//
// After an intended change to an exhibit, run
//
//	go test -run TestPinnedAPIBodies -v ./internal/server
//
// on amd64, check that the change in outputs is the one intended, and
// paste the printed map here.
var pinnedBodies = map[string]string{
	"/":                               "6670cc08494c5cfc35309cd58aac370f8d02651f600f533e3817fd44ce313a28",
	"/api/cdf/1/d2":                   "7d6ab2e423c1ef42ebcaa32e109bbf4c5c865577f5f3ae502d5331c1dfa288bd",
	"/api/cdf/1/d2-na":                "703575e1e8b583aa48de30e02e4443147a9a1e02e748ba9031ec8c892aa4f6db",
	"/api/cdf/1/uw1":                  "8b00070992feaa7e026baaf367e60cdf62074725e7cbc5f9825c30b36b8f2305",
	"/api/cdf/1/uw3":                  "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"/api/cdf/10/0000-0600":           "e70c9be2c42f77cd102dbc1f84dbed13945814603f4f59f1fda44d7d0520ece9",
	"/api/cdf/10/0600-1200":           "a460fd02ce85e8e71633d9526f53996a2017e0c5f87fc335813bf611ea0394bc",
	"/api/cdf/10/1200-1800":           "477606f692c15dfd74f737f97eca25625e58f0f3e596e4c6af6c862bc05e9e51",
	"/api/cdf/10/1800-2400":           "58814147eab507aaa1d42668cbc7989be81e616ade0d020fb0f26e3b9ab4ee5c",
	"/api/cdf/10/weekend":             "1a8ca14c59dd80b6d00e5b8353e2e6386ba3118c3e57be4c619f1772b23f0707",
	"/api/cdf/11/pair-averaged-uw4-a": "d46c8b7d419b197d01f3e5aedb4c55dae8b3a3be92197ae9b3d4629e5e0dc54e",
	"/api/cdf/11/unaveraged-uw4-a":    "980e14d86fb5f9e932d3fdc3ce6078f3b1a15d3430c9ee5284846459ec27b4d0",
	"/api/cdf/11/uw4-b":               "c8449cb75742ce298a728259d734a70c3b7578961c755c5c246844b2bad4b548",
	"/api/cdf/12/all-uw3-hosts":       "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"/api/cdf/12/without--top-ten-":   "a53f81ba66362239d3ee2522d1eb72ea686024fa67b03e5dc73c43cbb8b5e746",
	"/api/cdf/13/normalized-improvement-contribution": "e98532d1952ba25d50df5c6cedf1cd837d2877a990a9f2c73fdbe54d4aaa0654",
	"/api/cdf/14/alternate":                           "175d9b4164e983aa0c54423943e7dcf8c1e8801b0b9b885fdc116930183eb147",
	"/api/cdf/14/direct":                              "fdbf77a5bae4f4bce5fa0bfc6dfd478c345447a6e9aefc40186a4456d1da8751",
	"/api/cdf/15/mean-round-trip":                     "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"/api/cdf/15/propagation-delay":                   "9799b845495c4f15069b1d26dc6ffa175947a5c3024976fe01d95079017681c1",
	"/api/cdf/16/propagation":                         "cab245ef5178e6b4e5d85515f4f1a5e66a1f909a82a2e38fa281441dfacea20e",
	"/api/cdf/16/total":                               "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"/api/cdf/2/d2":                                   "8f863a31f96199d3206e86fad0f929583447df135e567c896f22d5cd9b830c50",
	"/api/cdf/2/d2-na":                                "943667e8f745eedfbadf1c119871490ddb7eeafe131fc171d7dab572dfd340b0",
	"/api/cdf/2/uw1":                                  "626848f9c1f4aabe27da510cc546031ca1f72e6e2345f0f65d7beb9751e139e0",
	"/api/cdf/2/uw3":                                  "ebaa98adfd25cdaeb8631435985433345bf0d3c2da952735ec68a81c1b79fd40",
	"/api/cdf/3/d2":                                   "bcf4b2075efe7f556d33207d5bee273dac3fb3ffa556627bf8a2000bd5b409b2",
	"/api/cdf/3/d2-na":                                "446b45c5cb5eca7d2b0e0c7a17f20aaba7112142746f19f8200df4397d7e76d8",
	"/api/cdf/3/uw1":                                  "693242e6bc2ca7e4ed1e8da1974db3af9481f2c64761471d358ac91dbd5a62f0",
	"/api/cdf/3/uw3":                                  "53dedabce9907f8afdc1057097406afb96bed91aba48e4257e31bb6817db2d8e",
	"/api/cdf/4/n2-na-optimistic":                     "8cb597c94c5ae2c3abeeaaae62c47b4123d2cd371b7e048ab478663d8b68fee0",
	"/api/cdf/4/n2-na-pessimistic":                    "faea05f477d362c75d13dfd1f800ab021efa4087c9c8b7009c59863bdcc911fb",
	"/api/cdf/4/n2-optimistic":                        "b50d0b87a78eb1d24f5ed03cf7f06a5cb41b4d65eae2988b2f4888fc6765f8cd",
	"/api/cdf/4/n2-pessimistic":                       "1396f534c759dd4a79c38fccb2838c344386f093174392d286703682420104f7",
	"/api/cdf/5/n2-na-optimistic":                     "fcd00627aab9484940ce31dc7e954b2412c261fc6799aceb8fbd0ae08ea4e461",
	"/api/cdf/5/n2-na-pessimistic":                    "144c98ccc4863c20330e2f4d224aa0e2f353b40740688a099fa02d86037e71a6",
	"/api/cdf/5/n2-optimistic":                        "c413780634ee7cf7a42af595aec4e8cf40d021ee2addcf04e558976d7890e5b6",
	"/api/cdf/5/n2-pessimistic":                       "8d7763dd6ee7a7a7cad611687e6d40e4452cb6284604780b8dff4253f5577d2b",
	"/api/cdf/6/mean--one-hop-":                       "703575e1e8b583aa48de30e02e4443147a9a1e02e748ba9031ec8c892aa4f6db",
	"/api/cdf/6/median--one-hop-":                     "194d0b3bffc46cc210a2d9b534a4293e738cafaf397d54680f4a151318d73027",
	"/api/cdf/7/improvement":                          "4ecca9f410d41d182f364e724d60bd665fec1ecc73c6840b239d718567d3a99e",
	"/api/cdf/8/improvement":                          "53dedabce9907f8afdc1057097406afb96bed91aba48e4257e31bb6817db2d8e",
	"/api/cdf/9/0000-0600":                            "b392d094d4ad1b64f84bce092643574a658c71cf0dbbfc330c6acf746bb3d652",
	"/api/cdf/9/0600-1200":                            "3ad25e6195c4ae5e010f405c0e65d3f701f28fe67f0a59b76bbcf001aa7aeeea",
	"/api/cdf/9/1200-1800":                            "c7dd921d613afa28106f44ea409b8ad126456119af3c4cbb3d0b2ce494f20fcf",
	"/api/cdf/9/1800-2400":                            "fa7552e2213481e9ce9e862a1b3470d333d13198d23db7d70ea1164ced4b3f17",
	"/api/cdf/9/weekend":                              "b04831fd951b9b08e01e553f5d6dcd3f7468c3066ac8ff82c114ad119d514302",
	"/api/figure/1":                                   "be31f84524de7f86df1cc9f5df94ad37353fd564453e8a3ce677e2d1d47dd7be",
	"/api/figure/10":                                  "21471906fc53eee82b9a4d73abfdb1244d019a583d97baa50f5e642f3c18c4e7",
	"/api/figure/11":                                  "d5f34e4149e5c2fe7f35f2959e489ed49dbbdcef30110aee0dbc2ce1da21965c",
	"/api/figure/12":                                  "b88fe01b087289d6821ec07edf54699424dd447555c5f86d9fd9f17b4dc01ee5",
	"/api/figure/13":                                  "e29fe9871fa81fb8fb2019e8ac8fc2598a55cb2c07b9fe35e55d6096e582a573",
	"/api/figure/14":                                  "fbedcb672e18b85c497a363b82ede3e4bf44db3f579669dc2dacdde4c9bac149",
	"/api/figure/15":                                  "7aed00d7cd3ae32943cc145d43b65746bc722231d6b2d5c4f7ec445897556d84",
	"/api/figure/16":                                  "b9ce87517e38b8c4118c6075d3353dce115353a3108123621bbfb3ecf787a817",
	"/api/figure/2":                                   "fe7d2eba61e4e3eee16f1ae7c3bc963749c0259aa709fda29bd322f386c8a251",
	"/api/figure/3":                                   "db0db61812290b4e47ca82ca8a5de0c59397af9990af63b5bee8becf9c8a4b61",
	"/api/figure/4":                                   "5f584cdb0fc80c1716c73c9b646eb05998fd9564acd8ae0bc93002d170455373",
	"/api/figure/5":                                   "e9a8a40ad53363525822fa21a745c0948a48c671ba9efb283e30f3cecd1111a4",
	"/api/figure/6":                                   "f73e97c9e08f58319c5afc5c9341d5d17b74dc40e4e9009823e3b7aa774296ec",
	"/api/figure/7":                                   "09bd55b01285affb99ffff3f091067f73c3a72eaf62d123d439c11cfd00281af",
	"/api/figure/8":                                   "9c39104522e0bad0e96ac3f6def3d364271c31ffc3d17a91bf40e7eb9a5552c6",
	"/api/figure/9":                                   "dc84b793c7479ab8e5bdb9b6e43d684101aca38544f7bca143d33d435289efa2",
	"/api/multipath":                                  "fdaf23ae2f8fa760b220769482e5553ea4a4b5681268114b32dec5f5a0cb8832",
	"/api/overlay":                                    "bc4a8e120e002a01462361bbcd2b6d5033dde29836ca890302299c90c9790478",
	"/api/packetlevel":                                "18b2b63b70334c6b8467aa17f559e823d214ebfcaf1085aab12a38f835d63c30",
	"/api/table/2":                                    "3623289462923f3ef33ec2796229004cbf31f557ea9448b1b4d7f8f62d047f2b",
	"/api/table/3":                                    "f06e3864a42e8bb90acbe2f6a4846794e4f8c0f04ed961062e2dcdc44e2c787e",
	"/api/table1":                                     "27b4e05f3043477c4199f426eba6c43ce3cd8078e95f63fa1b6e0df629c3c06b",
}

func TestPinnedAPIBodies(t *testing.T) {
	// Bodies carry floats computed with math.Exp and friends, which are
	// assembly on amd64 and may differ in the last bit elsewhere.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs every exhibit, overlay and packet level included")
	}
	h := testHandler(t)
	got := map[string]string{}
	fetch := func(path string) []byte {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		got[path] = hex.EncodeToString(sum[:])
		return rec.Body.Bytes()
	}
	for _, path := range []string{"/", "/api/table1", "/api/table/2", "/api/table/3",
		"/api/overlay", "/api/multipath", "/api/packetlevel"} {
		fetch(path)
	}
	for n := 1; n <= 16; n++ {
		var series []struct {
			CDF string `json:"cdf"`
		}
		if err := json.Unmarshal(fetch(fmt.Sprintf("/api/figure/%d", n)), &series); err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		for _, sr := range series {
			fetch(sr.CDF)
		}
	}

	paths := make([]string, 0, len(got))
	for p := range got {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "\t%q: %q,\n", p, got[p])
		if want, ok := pinnedBodies[p]; !ok {
			t.Errorf("%s: not pinned", p)
		} else if got[p] != want {
			t.Errorf("%s: digest %s, pinned %s", p, got[p], want)
		}
	}
	for p := range pinnedBodies {
		if _, ok := got[p]; !ok {
			t.Errorf("%s: pinned but no longer served", p)
		}
	}
	t.Logf("digests:\n%s", b.String())
}
