package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NoAlloc checks functions annotated //gee:noalloc — the hot paths
// where a single allocation per call would dominate the work (streamer
// numeric writers, histogram Observe, the trace-ring publish, exec
// kernels). Inside an annotated function it flags every allocating
// construct:
//
//   - make, new, growing append
//   - slice/map/pointer composite literals
//   - string concatenation and string<->[]byte conversions
//   - fmt.* calls (interface boxing plus formatting state)
//   - function literals (closure allocation) and go statements
//   - passing a concrete value where an interface is expected (boxing)
//   - calls to module functions that are not themselves annotated, and
//     calls to stdlib functions outside a small amortized-zero
//     allowlist (strconv.Append*, sync/atomic, math, sort.Search*, ...)
//   - dynamic calls (interface methods, function values) — the callee
//     is unknowable statically, so the annotation cannot vouch for it
//
// "No alloc" means amortized steady-state zero: strconv.Append* into a
// reused buffer is allowed even though the first call may grow it.
//
// The Required list makes annotations load-bearing: those functions
// must carry //gee:noalloc, so deleting the annotation fails geevet
// rather than silently dropping the check.
type NoAlloc struct {
	// Required lists FuncKey-form functions that must be annotated.
	Required []string
	// StdlibAllowed are prefixes of stdlib FuncKeys that are callable
	// from noalloc code ("strconv.Append", "(*sync/atomic.Int64).").
	StdlibAllowed []string
}

func (*NoAlloc) Name() string { return "noalloc" }
func (*NoAlloc) Doc() string {
	return "//gee:noalloc functions must not contain allocating constructs"
}

func (a *NoAlloc) Run(pass *Pass) {
	pkg := pass.Pkg
	mod := pass.Module
	annotated := mod.noallocFuncs()

	required := make(map[string]bool, len(a.Required))
	for _, r := range a.Required {
		required[r] = true
	}

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			key := FuncKey(obj)
			if required[key] && !FuncNoalloc(fd) {
				pass.Reportf(fd.Name.Pos(),
					"%s is a declared hot path and must carry //gee:noalloc (see internal/analysis config)", key)
				continue
			}
			if !FuncNoalloc(fd) || fd.Body == nil {
				continue
			}
			a.checkBody(pass, fd, key, annotated)
		}
	}
}

func (a *NoAlloc) checkBody(pass *Pass, fd *ast.FuncDecl, key string, annotated map[string]bool) {
	pkg := pass.Pkg
	modPath := pass.Module.Path

	report := func(n ast.Node, format string, args ...any) {
		pass.Reportf(n.Pos(), "%s: %s", key, fmt.Sprintf(format, args...))
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n, "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			report(n, "go statement allocates a goroutine")
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Chan:
					report(n, "%s composite literal allocates", tv.Type)
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if tv, ok := pkg.Info.Types[n.X]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n, "string concatenation allocates")
					}
				}
			}
		case *ast.CallExpr:
			a.checkCall(pass, report, pkg, modPath, n, annotated)
		}
		return true
	})
}

func (a *NoAlloc) checkCall(pass *Pass, report func(ast.Node, string, ...any), pkg *Package, modPath string, call *ast.CallExpr, annotated map[string]bool) {
	info := pkg.Info

	// Builtins and conversions first. The unsafe builtins (Sizeof and
	// friends) are reached through a selector, not a bare identifier.
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id != nil {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call, "make allocates")
			case "new":
				report(call, "new allocates")
			case "append":
				report(call, "append may grow its backing array")
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: string<->[]byte/[]rune copies; everything else is free.
		to := tv.Type.Underlying()
		if len(call.Args) == 1 {
			if from, ok := info.Types[call.Args[0]]; ok {
				if isStringByteConv(from.Type, to) {
					report(call, "string/[]byte conversion copies")
				}
			}
		}
		return
	}

	f := calleeFunc(info, call)
	if f == nil {
		// Dynamic call: interface method or function value.
		report(call, "dynamic call (interface method or function value) cannot be verified noalloc")
		return
	}
	if f.Pkg() == nil {
		return // universe scope (error.Error etc. resolve with a package; nothing to do)
	}
	fkey := FuncKey(f)
	fpkg := f.Pkg().Path()

	if fpkg == "fmt" || strings.HasPrefix(fkey, "fmt.") {
		report(call, "fmt call allocates (boxing + formatting state)")
		return
	}

	if fpkg == modPath || strings.HasPrefix(fpkg, modPath+"/") {
		if !annotated[fkey] {
			report(call, "calls %s, which is not annotated //gee:noalloc", fkey)
		}
		// Annotated module callees vouch for themselves; still check
		// boxing at this call site below.
	} else {
		allowed := false
		for _, prefix := range a.StdlibAllowed {
			if strings.HasPrefix(fkey, prefix) {
				allowed = true
				break
			}
		}
		if !allowed {
			report(call, "calls %s, outside the noalloc stdlib allowlist", fkey)
			return
		}
	}

	// Interface boxing at the call site: a concrete argument passed to
	// an interface parameter escapes to the heap (unless pointer-shaped
	// and cached, which we do not model — hot paths should not box).
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type) {
			continue // already an interface; no new box
		}
		if isPointerShaped(at.Type) {
			continue // pointers box without allocating
		}
		report(arg, "passing %s as interface %s boxes (allocates)", at.Type, pt)
	}
}

func isStringByteConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isBytes(to)) || (isBytes(from) && isStr(to))
}

func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
