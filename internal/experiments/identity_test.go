package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/grid"
)

// TestExperimentOutputIdentity pins the bytes of every harness: one SHA-256
// over the renderings of E1–E11 at Sets 2 and Reps 10, run as cmd/experiments
// runs them (one shared runner, GOMAXPROCS wide, memo on), on axes cut down
// to keep the test near two seconds: every default the harnesses fill in
// still runs, and the ablations share the Fig. 6(a) cell at N=6, ratio 0.1.
// Fig. 6(b) and E6 shard their simulations by GOMAXPROCS, and CI runs this
// test at -cpu 1,4. A refactor of the harnesses or the simulator leaves the
// hash as it is; a change to solver or simulator output re-pins it.
func TestExperimentOutputIdentity(t *testing.T) {
	const want = "57e5e2a3e2a647db2a8383c01487aae956efe047c901514caf3b8c17e28e188c"
	c := Common{Sets: 2, Reps: 10, Seed: 2005, Grid: grid.New(0, grid.NewMemo())}
	var b strings.Builder
	add := func(s string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
		b.WriteString("\n")
	}

	mot, err := Motivation()
	if err != nil {
		t.Fatal(err)
	}
	add(mot.Render(), nil)
	fig6a, err := Fig6a(Fig6aConfig{Common: c, TaskCounts: []int{2, 4, 6}})
	add(Table(fig6a, "Fig. 6(a)")+CSV(fig6a), err)
	fig6b, err := Fig6b(Fig6bConfig{Common: c, Ratios: []float64{0.1, 0.5}})
	add(AppTable(fig6b)+AppCSV(fig6b), err)
	slack, err := SlackPolicyAblation(c, 6, 0.1)
	add(SlackTable(slack), err)
	caps, err := SubInstanceCapAblation(c, 0.1, []int{4, 16})
	add(CapTable(caps), err)
	over, err := TransitionOverheadAblation(c, 6, 0.1, nil)
	add(OverheadTable(over), err)
	levels, err := DiscreteLevelAblation(c, 6, 0.1, nil)
	add(LevelTable(levels), err)
	weighted, err := WeightedObjectiveAblation(c, 6, 0.1, nil)
	add(WeightedTable(weighted), err)
	part, err := PartitionSweep(PartitionSweepConfig{Common: c, N: 6})
	add(PartitionTable(part, "E11")+PartitionCSV(part), err)
	cross, err := SolverCrossCheck(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	add(cross.Render(), nil)

	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("experiment output hash %s, pinned %s; the renderings:\n%s", got, want, b.String())
	}
}
