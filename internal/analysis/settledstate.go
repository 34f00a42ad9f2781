package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// settledFields lists the engine's settle-discipline state, keyed by the
// owning type in package cluster. These fields obey the settle-on-rate-change
// contract (see internal/cluster/eventindex.go): progress fields are exact
// only at their settle point, deadlines must equal what a fresh scan would
// compute, the wake bookkeeping carries a one-directional heap invariant,
// and the stored node totals and shrunken-executor counts must equal a fresh
// recount. A write from anywhere outside the engine's touch points can
// silently break bit-for-bit replay, which is why the rule is mechanical.
var settledFields = map[string]map[string]bool{
	"App": {
		"RemainingGB": true,
		"profileLeft": true,
		"settledAt":   true,
		"deadline":    true,
		"touched":     true,
	},
	"ForeignTask": {
		"remaining": true,
		"settledAt": true,
		"deadline":  true,
		"touched":   true,
		"done":      true,
	},
	"Node": {
		"wakeAt": true,
		// The stored totals are written by recount alone, the shrunken
		// count by countShrunk alone.
		"reservedGB": true,
		"actualGB":   true,
		"cpuDemand":  true,
		"shrunk":     true,
	},
	"Executor": {
		// gateUntil feeds the rate formula and the wake heap exactly like
		// App.startupUntil; processedGB is integrated at settle points like
		// App.RemainingGB.
		"gateUntil":   true,
		"processedGB": true,
	},
}

// settleTouchPoints are the engine methods allowed to mutate settled fields:
// the settle/touch/deadline machinery itself plus the engine paths that
// legitimately rewrite progress (profiling admission, completion, OOM
// charge-back) — each of which settles first and re-registers deadlines
// after. All of eventindex.go is allowed wholesale; it IS the discipline.
var settleTouchPoints = map[string]bool{
	// eventindex.go machinery (also covered by the file allowance; named so
	// the rule survives a file split).
	"settleApp":          true,
	"settleForeign":      true,
	"touchApp":           true,
	"touchForeign":       true,
	"setAppDeadline":     true,
	"setForeignDeadline": true,
	"refreshDeadlines":   true,
	"resetIndex":         true,
	"wakeExpiredNodes":   true,
	"markDirty":          true,
	// engine.go touch points.
	"applyProfilePlan":   true,
	"admitProfiling":     true,
	"recomputeRates":     true,
	"rateNode":           true,
	"reclaimExecutor":    true,
	"completeApp":        true,
	"reregisterDeadline": true,
	"completeForeign":    true,
	// lifecycle.go: a failing node takes its co-runners with it (marks them
	// done/Lost and re-dirties the node).
	"failNode": true,
	// migrate.go: graceful drain migration settles the app, moves the
	// executor (or hands its work to a sibling) and installs the
	// checkpoint/restart gate.
	"migrateFrom":     true,
	"migrateExecutor": true,
	"handoffExecutor": true,
	// node.go and app.go: the one writer each of the stored node totals and
	// the shrunken-executor count. Spawn, Grow and removeExecutor call them
	// but stay off this list, which would let them write every settled
	// field.
	"recount":     true,
	"countShrunk": true,
}

// SettledState forbids writes (assignment, op-assignment, increment) to the
// settle-discipline fields of cluster.App, cluster.ForeignTask and
// cluster.Node outside the engine's touch-point methods and eventindex.go.
// This is the rule PRs 4 and 6 state in prose — settled engine state is
// mutated only through touch points — made mechanical. Test code that needs
// to poke a field directly must carry //moevet:allow settledstate <reason>.
var SettledState = &Analyzer{
	Name: "settledstate",
	Doc:  "forbids writes to settle-discipline engine fields outside the engine's touch-point methods",
	Run:  runSettledState,
}

func runSettledState(pass *Pass) {
	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "eventindex.go" {
			continue
		}
		var fns []string // enclosing function-name stack
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fns = append(fns, n.Name.Name)
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				fns = fns[:len(fns)-1]
				return false
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkSettledWrite(pass, fns, lhs)
				}
			case *ast.IncDecStmt:
				checkSettledWrite(pass, fns, n.X)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

// checkSettledWrite reports the write when lhs is a settled field and no
// enclosing function is a touch point.
func checkSettledWrite(pass *Pass, fns []string, lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || field.Pkg().Name() != "cluster" {
		return
	}
	named := namedRecv(selection.Recv())
	if named == nil {
		return
	}
	fields, ok := settledFields[named.Obj().Name()]
	if !ok || !fields[field.Name()] {
		return
	}
	for _, fn := range fns {
		if settleTouchPoints[fn] {
			return
		}
	}
	pass.Reportf(sel.Pos(),
		"write to settle-discipline field %s.%s outside an engine touch point: mutate through the settle/touch machinery (eventindex.go), or annotate //moevet:allow settledstate <reason>",
		named.Obj().Name(), field.Name())
}

// namedRecv unwraps pointers to the named type a selection starts from.
func namedRecv(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}
