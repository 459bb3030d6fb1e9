package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRegistryDeterminism: the fire/pass sequence of a point is a pure
// function of (seed, name, call index).
func TestRegistryDeterminism(t *testing.T) {
	draw := func(seed uint64) []bool {
		r := NewRegistry(seed)
		r.Arm("p", Spec{Prob: 0.3, Err: true})
		seq := make([]bool, 200)
		for i := range seq {
			seq[i] = r.Eval("p").Err != nil
		}
		return seq
	}
	a, b := draw(42), draw(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: same seed diverged", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob 0.3 fired %d/%d times — not drawing", fires, len(a))
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fire sequences")
	}
}

// TestRegistryAfterCount: After skips leading calls, Count caps total fires,
// and Snapshot accounts both.
func TestRegistryAfterCount(t *testing.T) {
	r := NewRegistry(1)
	r.Arm("p", Spec{Prob: 1, Err: true, After: 3, Count: 2})
	var fires int
	for i := 0; i < 10; i++ {
		out := r.Eval("p")
		if out.Err != nil {
			fires++
			if i < 3 {
				t.Fatalf("fired at call %d despite After=3", i)
			}
		}
	}
	if fires != 2 {
		t.Fatalf("Count=2 but fired %d times", fires)
	}
	snap := r.Snapshot()["p"]
	if snap.Calls != 10 || snap.Fires != 2 {
		t.Fatalf("snapshot = %+v, want calls=10 fires=2", snap)
	}
	r.DisarmAll()
	if r.Eval("p").Err != nil {
		t.Fatal("disarmed point still fires")
	}
}

// TestNilRegistry: nil registry is inert everywhere.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if out := r.Eval("anything"); out.Err != nil || out.Latency != 0 {
		t.Fatalf("nil registry fired: %+v", out)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

// TestParseSpecs covers the CLI grammar and its rejections.
func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("fs.write=torn:0.5:0.3,fs.read=err:0.1,fs.sync=slow:2ms:1")
	if err != nil {
		t.Fatal(err)
	}
	if w := specs["fs.write"]; !w.Err || w.Torn != 0.5 || w.Prob != 0.3 {
		t.Fatalf("torn spec = %+v", w)
	}
	if rd := specs["fs.read"]; !rd.Err || rd.Prob != 0.1 || rd.Torn != 0 {
		t.Fatalf("err spec = %+v", rd)
	}
	if sy := specs["fs.sync"]; sy.Err || sy.Latency != 2*time.Millisecond || sy.Prob != 1 {
		t.Fatalf("slow spec = %+v", sy)
	}
	if m, err := ParseSpecs("  "); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	for _, bad := range []string{"noequals", "p=err", "p=err:2", "p=torn:0:1", "p=slow:xx:1", "p=weird:1"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Fatalf("ParseSpecs(%q) accepted", bad)
		}
	}
}

// TestInjectFSErrAndTorn: the FS wrapper surfaces injected read errors and
// persists exactly the torn prefix of a failed write.
func TestInjectFSErrAndTorn(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(7)
	ifs := Inject(OS(), reg)

	path := filepath.Join(dir, "f")
	f, err := ifs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	reg.Arm("fs.write", Spec{Prob: 1, Err: true, Torn: 0.5})
	data := []byte("0123456789")
	if _, err := f.WriteAt(data, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write err = %v, want ErrInjected", err)
	}
	reg.Disarm("fs.write")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234" {
		t.Fatalf("torn write persisted %q, want the 50%% prefix", got)
	}

	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("disarmed write failed: %v", err)
	}
	reg.Arm("fs.read", Spec{Prob: 1, Err: true})
	if _, err := ifs.ReadFile(path); !errors.Is(err, ErrInjected) {
		t.Fatal("ReadFile not intercepted")
	}
	if _, err := ifs.ReadDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatal("ReadDir not intercepted")
	}
	reg.Disarm("fs.read")

	reg.Arm("fs.sync", Spec{Prob: 1, Err: true})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v, want ErrInjected", err)
	}
	reg.Arm("fs.open", Spec{Prob: 1, Err: true})
	if _, err := ifs.OpenFile(path, os.O_RDONLY, 0); !errors.Is(err, ErrInjected) {
		t.Fatal("open not intercepted")
	}
}

// TestBreakerLifecycle drives closed → open → half-open → closed with a fake
// clock, plus the half-open failure re-trip.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker()
	b.SetClock(func() time.Time { return now })

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	fail := errors.New("disk gone")
	for i := 1; i < BreakerThreshold; i++ {
		b.Record(fail)
	}
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.Record(nil)
	for i := 1; i < BreakerThreshold; i++ {
		b.Record(fail)
	}
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the consecutive count")
	}
	b.Record(fail)
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d after %d consecutive failures", b.State(), b.Trips(), BreakerThreshold)
	}
	now = now.Add(BreakerCooldown - time.Nanosecond)
	if b.Allow() {
		t.Fatal("open breaker allowed an op before cooldown")
	}
	now = now.Add(time.Nanosecond)
	if !b.Allow() || b.State() != BreakerHalfOpen {
		t.Fatal("cooldown elapsed but breaker did not half-open")
	}
	b.Record(fail)
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatal("half-open failure did not re-trip")
	}
	now = now.Add(BreakerCooldown)
	if !b.Allow() {
		t.Fatal("second half-open probe refused")
	}
	b.Record(nil)
	if b.State() != BreakerClosed || b.Recloses() != 1 {
		t.Fatalf("probe success did not re-close: state=%v recloses=%d", b.State(), b.Recloses())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}
