package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"unicode"
	"unicode/utf8"
)

// RefPair keeps reference implementations and their optimised twins from
// drifting apart structurally. Files named *_ref.go or *_ref_test.go hold
// full-scan reference paths (engine_ref_test.go) that differential tests
// replay against the live indexed paths; if someone changes a live
// function's results (or removes it) without updating the reference, the
// differential test can rot into comparing different quantities. For every
// reference function — a function in such a file whose name starts with
// "ref", or any function carrying an explicit `//moevet:refpair <twin>`
// directive — the analyzer requires:
//
//  1. the twin exists in the same package (same receiver type for methods);
//  2. the result types are identical;
//  3. the twin's parameters appear, in order and with identical types,
//     among the reference's parameters (references often take extra
//     explicit state the live path reads from cached engine fields).
//
// Name resolution without a directive: refNextEventDt pairs with
// nextEventDt or NextEventDt. A reference with no live twin at all (pure
// cross-checkers like refCheckRates) is annotated
// //moevet:allow refpair <reason>.
var RefPair = &Analyzer{
	Name: "refpair",
	Doc:  "checks that reference implementations in *_ref.go and *_ref_test.go keep signatures matching their optimised twins",
	Run:  runRefPair,
}

const refPairDirective = "//moevet:refpair"

func runRefPair(pass *Pass) {
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		isRefFile := strings.HasSuffix(name, "_ref.go") || strings.HasSuffix(name, "_ref_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			twin := directiveTwin(fd)
			if twin == "" && (!isRefFile || !strings.HasPrefix(fd.Name.Name, "ref")) {
				continue
			}
			checkRefPair(pass, fd, twin)
		}
	}
}

// directiveTwin returns the twin named by a //moevet:refpair directive in
// the function's doc comment, or "".
func directiveTwin(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, refPairDirective); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				return fields[0]
			}
		}
	}
	return ""
}

func checkRefPair(pass *Pass, fd *ast.FuncDecl, twinName string) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)

	candidates := []string{twinName}
	if twinName == "" {
		rest := strings.TrimPrefix(fd.Name.Name, "ref")
		candidates = []string{lowerFirst(rest), rest}
	}
	twin := findTwin(pass, sig, candidates)
	if twin == nil {
		pass.Reportf(fd.Name.Pos(),
			"reference %s has no twin %s: pair it with //moevet:refpair <twin>, or annotate //moevet:allow refpair <reason> if it is a pure cross-checker",
			fd.Name.Name, strings.Join(candidates, " or "))
		return
	}
	twinSig := twin.Type().(*types.Signature)
	if !types.Identical(sig.Results(), twinSig.Results()) {
		pass.Reportf(fd.Name.Pos(),
			"reference %s results %s differ from twin %s results %s: the differential test would compare different quantities",
			fd.Name.Name, tupleString(sig.Results()), twin.Name(), tupleString(twinSig.Results()))
		return
	}
	if !paramsSubsequence(twinSig.Params(), sig.Params()) {
		pass.Reportf(fd.Name.Pos(),
			"twin %s parameters %s are not a subsequence of reference %s parameters %s",
			twin.Name(), tupleString(twinSig.Params()), fd.Name.Name, tupleString(sig.Params()))
	}
}

// findTwin looks the candidate names up in the package scope, or — for
// methods — in the method set of the reference's receiver type.
func findTwin(pass *Pass, sig *types.Signature, candidates []string) *types.Func {
	for _, name := range candidates {
		if name == "" {
			continue
		}
		if recv := sig.Recv(); recv != nil {
			named := namedRecv(recv.Type())
			if named == nil {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(named, true, pass.Pkg, name)
			if fn, ok := obj.(*types.Func); ok {
				return fn
			}
			continue
		}
		if fn, ok := pass.Pkg.Scope().Lookup(name).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// paramsSubsequence reports whether sub's parameter types appear in order
// within full's.
func paramsSubsequence(sub, full *types.Tuple) bool {
	j := 0
	for i := 0; i < sub.Len(); i++ {
		found := false
		for ; j < full.Len(); j++ {
			if types.Identical(sub.At(i).Type(), full.At(j).Type()) {
				j++
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func tupleString(t *types.Tuple) string {
	parts := make([]string, t.Len())
	for i := range parts {
		parts[i] = t.At(i).Type().String()
	}
	return fmt.Sprintf("(%s)", strings.Join(parts, ", "))
}

func lowerFirst(s string) string {
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError {
		return s
	}
	return string(unicode.ToLower(r)) + s[size:]
}
