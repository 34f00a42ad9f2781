package main

import (
	"slices"
	"testing"

	"moespark/internal/experiments"
)

// TestRunnerIDs pins the experiment ids: unique, and in the order -list
// prints them and -exp all runs them.
func TestRunnerIDs(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "table5",
		"opensys", "hetero", "tenants", "drift", "faults",
	}
	var ids []string
	seen := map[string]bool{}
	for _, r := range runners() {
		if seen[r.id] {
			t.Errorf("duplicate experiment id %q", r.id)
		}
		seen[r.id] = true
		ids = append(ids, r.id)
	}
	if !slices.Equal(ids, want) {
		t.Errorf("experiment ids %v, want %v", ids, want)
	}
}

// TestRunnerRendersDirectCall runs one cheap experiment through each
// adapter and requires the tables a direct call renders: fig4 renders one
// table, fig10 several.
func TestRunnerRendersDirectCall(t *testing.T) {
	ctx := experiments.DefaultContext()
	ctx.MixesPerScenario = 1
	direct := map[string]func() ([]experiments.Table, error){
		"fig4": func() ([]experiments.Table, error) {
			r, err := experiments.Fig4(ctx)
			return []experiments.Table{r.Table()}, err
		},
		"fig10": func() ([]experiments.Table, error) {
			r, err := experiments.Fig10(ctx)
			return r.Tables(), err
		},
	}
	for _, r := range runners() {
		call, ok := direct[r.id]
		if !ok {
			continue
		}
		got, err := r.run(ctx)
		if err != nil {
			t.Fatalf("%s through the table: %v", r.id, err)
		}
		want, err := call()
		if err != nil {
			t.Fatalf("%s called directly: %v", r.id, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d tables through the table, %d called directly", r.id, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Errorf("%s table %d differs:\n%s\nwant:\n%s", r.id, i, got[i].String(), want[i].String())
			}
		}
		delete(direct, r.id)
	}
	for id := range direct {
		t.Errorf("experiment %s is missing from the table", id)
	}
}
