package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/runner"
)

// storeCells runs experiment grids through a Store, counting the cells
// it had to simulate.
type storeCells struct {
	store     *Store
	simulated atomic.Int64
}

func (c *storeCells) GetOrCompute(ctx context.Context, addr string, _ runner.Spec,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	return c.store.GetOrCompute(ctx, addr, func(ctx context.Context) (experiments.CellResult, error) {
		c.simulated.Add(1)
		return compute(ctx)
	})
}

// render runs each experiment through store and returns the rendered
// outputs plus the number of cells simulated.
func render(t *testing.T, store *Store, exps ...string) ([]string, int64) {
	t.Helper()
	cells := &storeCells{store: store}
	p := testParams()
	p.Cache = cells
	out := make([]string, len(exps))
	for i, name := range exps {
		r, err := experiments.Run(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[i] = r.Render()
	}
	return out, cells.simulated.Load()
}

// storedFiles returns every cell file under the store's directory.
func storedFiles(t *testing.T, s *Store) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(s.Dir(), "*", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no stored cells (%v)", err)
	}
	return files
}

// TestStoreTamperedTable3Cell is the stale-result defect: a stored
// table3 cell whose counts were altered on disk must not be served. A
// fresh store over the directory rejects the tampered entry,
// re-simulates exactly that cell, and renders table3 byte-identical to
// the untampered run.
func TestStoreTamperedTable3Cell(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := render(t, s, "table3")

	chc := regexp.MustCompile(`"Chc":(\d+)`)
	tampered := false
	for _, f := range storedFiles(t, s) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !chc.Match(data) {
			continue
		}
		bumped := chc.ReplaceAllFunc(data, func(m []byte) []byte {
			n, _ := strconv.Atoi(string(chc.FindSubmatch(m)[1]))
			return []byte(`"Chc":` + strconv.Itoa(n+1000))
		})
		if err := os.WriteFile(f, bumped, 0o644); err != nil {
			t.Fatal(err)
		}
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no stored table3 cell carries a Chc count")
	}

	reg := obs.NewRegistry()
	fresh, err := NewStore(s.Dir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	got, simulated := render(t, fresh, "table3")
	if got[0] != clean[0] {
		t.Errorf("tampered store rendered\n%s\nwant\n%s", got[0], clean[0])
	}
	if simulated != 1 {
		t.Errorf("simulated %d cells, want exactly the tampered one", simulated)
	}
	if n := reg.Counter("specctrl_store_corrupt_total", nil).Value(); n != 1 {
		t.Errorf("corrupt = %d, want 1", n)
	}
}

// TestStoreSharedCellsImmutable: resident cells are shared by every job
// that reads them, so no experiment may mutate a cell it was handed.
// The warm served job's experiments plus the policy sweeps (whose cells
// carry Runs) run twice through one store: the second, fully resident
// pass must render the same bytes, and every resident cell must still
// marshal to exactly the payload verified on disk.
func TestStoreSharedCellsImmutable(t *testing.T) {
	exps := []string{"table2", "table3", "misest", "patterns", "cir", "abl-width", "abl-gating", "frontier"}
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := render(t, s, exps...)
	second, simulated := render(t, s, exps...)
	if simulated != 0 {
		t.Errorf("second pass simulated %d cells, want 0", simulated)
	}
	for i, name := range exps {
		if second[i] != first[i] {
			t.Errorf("%s: second pass over shared cells rendered differently", name)
		}
	}

	for _, f := range storedFiles(t, s) {
		addr := filepath.Base(f[:len(f)-len(".json")])
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := openEnvelope(addr, data); !ok {
			t.Fatalf("%s: stored entry fails verification", addr)
		}
		var env struct {
			Cell json.RawMessage `json:"cell"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		c, ok := s.cells.Get(addr)
		if !ok {
			t.Fatalf("%s: not resident", addr)
		}
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, env.Cell) {
			t.Errorf("%s: resident cell was mutated after it was stored", addr)
		}
	}
}
