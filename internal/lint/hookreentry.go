package lint

import (
	"go/ast"
)

// hookMethodNames are the Sanitizer-analog callback entry points: the
// gpu.Hook interface (OnAPI, OnAccessBatch) and the trace access-sink
// extensions (ObjectAccess, ObjectAccessRun). Matching is by method name —
// the callback naming convention is itself part of the contract — so the
// analyzer works on implementations in any package without needing the
// interface's type information.
var hookMethodNames = map[string]bool{
	"OnAPI":           true,
	"OnAccessBatch":   true,
	"ObjectAccess":    true,
	"ObjectAccessRun": true,
}

// deviceMutators are the gpu.Device methods that advance simulator state:
// the five GPU API classes, the custom-pool surfacing calls, and the
// stream/clock mutations. A hook calling any of these re-enters the runtime
// it is observing — the Sanitizer-API re-entrancy rule (callbacks run
// synchronously inside the API being traced, so re-entry corrupts record
// indices, stream clocks and the access batch buffer).
var deviceMutators = map[string]bool{
	"Malloc":       true,
	"Free":         true,
	"MemcpyHtoD":   true,
	"MemcpyDtoH":   true,
	"MemcpyDtoD":   true,
	"Memset":       true,
	"Launch":       true,
	"LaunchFunc":   true,
	"CustomAlloc":  true,
	"CustomFree":   true,
	"Synchronize":  true,
	"CreateStream": true,
}

// poolMutators are the custom-allocator operations that themselves emit
// simulator API records; calling them from a hook re-enters just the same.
var poolMutators = map[string]bool{
	"Alloc":   true,
	"Free":    true,
	"Release": true,
}

// HookReentry flags calls from Sanitizer-analog hook bodies back into
// simulator mutating APIs. Hook bodies are methods implementing the
// gpu.Hook / trace.AccessSink callback surface and function literals
// registered as pool observers. Only direct calls are checked; helpers a
// hook delegates to are the helper author's responsibility.
var HookReentry = &Analyzer{
	Name: "hookreentry",
	Doc: "flags gpu hook/callback bodies that call simulator mutating APIs " +
		"(Sanitizer-API re-entrancy rule)",
	Run: runHookReentry,
}

func runHookReentry(pass *Pass) {
	for _, file := range pass.Files {
		// Hook interface implementations.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !hookMethodNames[fd.Name.Name] {
				continue
			}
			checkHookBody(pass, fd.Body, fd.Name.Name)
		}
		// Pool observer literals: pool.Register(func(ev Event) { ... }).
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Name() != "Register" || fn.Pkg() == nil ||
				fn.Pkg().Path() != "drgpum/internal/pool" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkHookBody(pass, lit.Body, "pool observer")
				}
			}
			return true
		})
	}
}

// checkHookBody reports every direct call to a simulator mutating API
// inside one hook body (including nested function literals, which almost
// always run inside the callback).
func checkHookBody(pass *Pass, body *ast.BlockStmt, hookName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		named := recvNamed(fn)
		if named == nil || named.Obj().Pkg() == nil {
			return true
		}
		recvPkg := named.Obj().Pkg().Path()
		switch {
		case recvPkg == "drgpum/internal/gpu" && named.Obj().Name() == "Device" && deviceMutators[fn.Name()]:
			pass.Reportf(call.Pos(), "hook %s calls Device.%s: Sanitizer-analog callbacks must not re-enter the simulator they observe",
				hookName, fn.Name())
		case recvPkg == "drgpum/internal/pool" && poolMutators[fn.Name()]:
			pass.Reportf(call.Pos(), "hook %s calls pool %s.%s, which emits simulator API records: callbacks must not re-enter the runtime",
				hookName, named.Obj().Name(), fn.Name())
		}
		return true
	})
}
