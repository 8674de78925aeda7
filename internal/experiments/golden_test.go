package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the paper-report goldens")

// TestReportGoldens pins every regenerated paper artifact byte for byte:
// testdata/reports/<id>.txt holds Report.String() at seed 1, with the
// experiments run in paper order on a fresh context, as `experiments -all`
// runs them. Each pass characterizes afresh (fig4.7 trains the shared
// power model, which later DTPM runs clone), and the two passes run the
// benchmark grids on 1 and 4 workers, so the goldens also referee the
// concurrent run cache. Regenerate with -update only for a change that is
// meant to move a paper artifact.
func TestReportGoldens(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c, err := NewContext(context.Background(), 1)
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		c.SetWorkers(workers)
		for _, e := range All() {
			rep, err := e.Run(c)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, e.ID, err)
			}
			got := rep.String()
			path := filepath.Join("testdata", "reports", e.ID+".txt")
			if *update && workers == 1 {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create it)", e.ID, err)
			}
			if got != string(want) {
				t.Errorf("workers=%d %s: report differs from %s at %s", workers, e.ID, path, firstDiff(got, string(want)))
			}
		}
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d (length differs)", min(len(g), len(w))+1)
}
