package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// TestBlobMetrics: the replication counters are series on the peer's
// /metrics, so a push to a dead replica shows there.
func TestBlobMetrics(t *testing.T) {
	leakcheck.Check(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the address stops answering
	p := NewPeer(Options{Self: "a", Peers: map[string]string{"a": "", "b": deadURL}, Replicas: 2})
	defer p.Close()

	// With two peers and R = 2, "b" owns every key: each put pushes to it
	// and each local miss asks it.
	if err := p.repl.PutBlob("request-x", []byte("{}")); err != nil {
		t.Fatalf("a failed push must not fail the put: %v", err)
	}
	if _, ok, err := p.repl.GetBlob("request-y"); ok || err != nil {
		t.Fatalf("get of an absent blob: ok=%v err=%v", ok, err)
	}

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := obs.ParseExposition(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"schedd_fleet_blob_pushes_total":      1,
		"schedd_fleet_blob_push_errors_total": 1,
		"schedd_fleet_blob_remote_gets_total": 1,
	} {
		fam := obs.FindFamily(fams, name)
		if fam == nil || len(fam.Samples) != 1 {
			t.Errorf("%s: missing or not one series: %+v", name, fam)
			continue
		}
		if got := fam.Samples[0].Value; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
