package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapIterScope lists the module-relative package prefixes in which report
// or output construction happens, so map-iteration order there would leak
// into artifacts that must be byte-identical run to run and at any
// GOMAXPROCS (the determinism contract; DESIGN.md §4.1).
var mapIterScope = []string{
	"internal/core",
	"internal/advisor",
	"internal/tables",
	"internal/peak",
	"internal/objlevel",
	"internal/intraobj",
	"internal/memcheck",
	"internal/overhead",
	"internal/gui",
	"internal/trace",
	"internal/profile",
	"internal/workloads",
	"cmd/",
}

// MapIter flags `range` statements over maps whose bodies feed
// order-sensitive sinks — slice appends, string building, formatted output,
// channel sends — because Go map iteration order is randomized and the
// offline pipeline's reports must be byte-identical at GOMAXPROCS=1 and at
// the default. Two idioms are exempt:
//
//   - appending into a slice that is sorted later in the same function
//     (the collect-keys-then-sort pattern), including via helpers whose
//     name contains "sort";
//   - appending into a slice declared inside the loop body (per-iteration
//     scratch that cannot carry order across iterations).
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flags map iteration feeding report/output construction unless keys are sorted first " +
		"(byte-identical-report contract)",
	Run: runMapIter,
}

func runMapIter(pass *Pass) {
	if !inScope(pass.Pkg.Path(), mapIterScope) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rs) {
				return true
			}
			checkMapRangeBody(pass, file, rs)
			return true
		})
	}
}

// isMapRange reports whether rs iterates a map.
func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody reports every order-sensitive sink inside the body of a
// map-range statement. Nested map ranges are not descended into: they
// report their own sinks.
func checkMapRangeBody(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	fnBody := enclosingFunc(file, rs.Pos())
	walkSkippingMapRanges(pass, rs.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send inside range over map %s: delivery order depends on map iteration; iterate sorted keys instead",
				types.ExprString(rs.X))
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				lhsT := pass.TypeOf(x.Lhs[0])
				switch {
				case isStringType(lhsT):
					pass.Reportf(x.Pos(), "string built inside range over map %s: output depends on map iteration order; iterate sorted keys instead",
						types.ExprString(rs.X))
				case isFloatType(lhsT):
					pass.Reportf(x.Pos(), "float accumulation inside range over map %s: float addition is not associative, so the sum depends on map iteration order; iterate sorted keys instead",
						types.ExprString(rs.X))
				}
			}
		case *ast.CallExpr:
			checkMapRangeCall(pass, fnBody, rs, x)
		}
	})
}

// checkMapRangeCall classifies one call inside a map-range body.
func checkMapRangeCall(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, call *ast.CallExpr) {
	// append(dest, ...) — ordered accumulation, unless exempt.
	if isBuiltin(pass, call.Fun, "append") && len(call.Args) > 0 {
		dest := call.Args[0]
		if appendExempt(pass, fnBody, rs, dest) {
			return
		}
		pass.Reportf(call.Pos(), "append to %s inside range over map %s: element order depends on map iteration; collect and sort keys first",
			types.ExprString(dest), types.ExprString(rs.X))
		return
	}
	// fmt output functions.
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		name := fn.Name()
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Append") {
			pass.Reportf(call.Pos(), "fmt.%s inside range over map %s: output order depends on map iteration; iterate sorted keys instead",
				name, types.ExprString(rs.X))
			return
		}
	}
	// Writer-like method sinks (strings.Builder, bytes.Buffer, io.Writer).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			if recvIsWriter(pass, sel.X) {
				pass.Reportf(call.Pos(), "%s.%s inside range over map %s: output order depends on map iteration; iterate sorted keys instead",
					types.ExprString(sel.X), sel.Sel.Name, types.ExprString(rs.X))
			}
		}
	}
}

// appendExempt applies the two sanctioned append idioms.
func appendExempt(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, dest ast.Expr) bool {
	// Per-iteration scratch: destination declared inside the loop body.
	if id := rootIdent(dest); id != nil {
		if obj := pass.ObjectOf(id); obj != nil &&
			obj.Pos() >= rs.Body.Pos() && obj.Pos() < rs.Body.End() {
			return true
		}
	}
	// Collect-then-sort: the destination appears as an argument of a sort
	// call after the loop in the same function.
	return fnBody != nil && sortedAfter(pass, fnBody, types.ExprString(dest), rs.End())
}

// sortedAfter reports whether, after pos, fnBody contains a call to a sort
// function (package sort or slices, or any function whose name contains
// "sort") taking destStr as an argument.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, destStr string, pos token.Pos) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == destStr {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort/slices package functions and sort-named
// helpers (e.g. sortObjectIDs).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	if fn := calleeFunc(pass, call); fn != nil {
		if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
			return true
		}
		if strings.Contains(strings.ToLower(fn.Name()), "sort") {
			return true
		}
	}
	return false
}

// walkSkippingMapRanges visits every node under root except the subtrees of
// nested map-range statements (which report independently).
func walkSkippingMapRanges(pass *Pass, root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok && n != root && isMapRange(pass, rs) {
			return false
		}
		visit(n)
		return true
	})
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isFloatType reports whether t's underlying type is a float or complex
// kind (non-associative addition).
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// recvIsWriter reports whether the receiver expression's type (or its
// pointer) implements io.Writer.
func recvIsWriter(pass *Pass, recv ast.Expr) bool {
	t := pass.TypeOf(recv)
	if t == nil {
		return false
	}
	if types.Implements(t, ioWriter) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), ioWriter)
	}
	return false
}

// ioWriter is a structural stand-in for io.Writer, built by hand so the
// analyzer does not need io's type information in every checked package.
var ioWriter = func() *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
		),
		false)
	iface := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Write", sig),
	}, nil)
	iface.Complete()
	return iface
}()
