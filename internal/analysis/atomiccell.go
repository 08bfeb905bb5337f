package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicCell flags mixed atomic/plain access to the same memory cell —
// the bug class go vet cannot see because both halves are individually
// well-typed.
//
// Two shapes are checked:
//
//   - Struct fields: a field whose address is passed to sync/atomic (or
//     a configured atomic helper package) anywhere in the package must
//     not also be read or written plainly. Composite-literal
//     initialization is exempt (the cell is not shared yet), as is any
//     access inside the function that declared the enclosing variable
//     (single-owner setup before publication).
//
//   - Slice elements: when &s[i] escapes into an atomic call somewhere,
//     plain s[j] access inside a closure nested below the slice's
//     declaring function is flagged — that is exactly the parallel
//     worker shape where a goroutine races the atomic writers.
//     Plain element access in the declaring function itself stays
//     legal: init loops and post-join reads are the intended pattern.
//
// A package annotated //gee:racy is exempt: the paper's benign-race
// executor does this on purpose. Only the packages in RacyAllowed may
// carry the annotation, and the packages in RacyRequired must (so
// deleting the annotation fails the build).
type AtomicCell struct {
	// AtomicPkgs are package paths whose calls taking &x constitute
	// atomic access evidence (sync/atomic plus repo helpers).
	AtomicPkgs []string
	// RacyAllowed lists package paths that may carry //gee:racy.
	RacyAllowed []string
	// RacyRequired lists package paths that must carry //gee:racy.
	RacyRequired []string
}

func (*AtomicCell) Name() string { return "atomiccell" }
func (*AtomicCell) Doc() string {
	return "a cell accessed via sync/atomic anywhere must be accessed atomically everywhere"
}

func (a *AtomicCell) isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	for _, p := range a.AtomicPkgs {
		if f.Pkg().Path() == p {
			return true
		}
	}
	return false
}

func (a *AtomicCell) Run(pass *Pass) {
	pkg := pass.Pkg
	racyPos, racy := PackageRacy(pkg)

	allowed := false
	for _, p := range a.RacyAllowed {
		if pkg.Path == p {
			allowed = true
		}
	}
	if racy && !allowed {
		pass.Reportf(racyPos, "package %s carries //gee:racy but only %v may", pkg.Path, a.RacyAllowed)
	}
	for _, p := range a.RacyRequired {
		if pkg.Path == p && !racy {
			pass.Reportf(pkg.Files[0].Package,
				"package %s hosts the deliberate-race executor and must be annotated //gee:racy", pkg.Path)
		}
	}
	if racy && allowed {
		return // intentional races: analyzer stands down for this package
	}

	// Pass 1 over the package: collect atomic-access evidence.
	// atomicFields: field vars whose address feeds an atomic call.
	// atomicElems: slice/array vars (locals, params, fields) with some
	// &v[i] feeding an atomic call.
	// atomicArgPos: positions of the &x expressions themselves, so pass
	// 2 does not re-flag the atomic call sites.
	atomicFields := make(map[*types.Var]token.Pos)
	atomicElems := make(map[*types.Var]token.Pos)
	atomicArgPos := make(map[ast.Expr]bool)

	// declFunc maps every local object (params and receivers included)
	// to its declaring FuncDecl/FuncLit. localCreated holds only vars
	// introduced by := or var inside a function — values the function
	// itself created, as opposed to shared state it received.
	declFunc := make(map[*types.Var]ast.Node)
	localCreated := make(map[*types.Var]bool)

	recordCreated := func(info *types.Info, idents []*ast.Ident) {
		for _, id := range idents {
			if v, ok := info.Defs[id].(*types.Var); ok {
				localCreated[v] = true
			}
		}
	}

	for _, file := range pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							recordCreated(pkg.Info, []*ast.Ident{id})
						}
					}
				}
			case *ast.ValueSpec:
				if enclosingFunc(stack) != nil {
					recordCreated(pkg.Info, n.Names)
				}
			case *ast.Ident:
				if v, ok := pkg.Info.Defs[n].(*types.Var); ok && !v.IsField() {
					if fn := enclosingFunc(stack); fn != nil {
						declFunc[v] = fn
					}
				}
			case *ast.CallExpr:
				if !a.isAtomicCall(pkg.Info, n) {
					return true
				}
				for _, arg := range n.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					switch target := ast.Unparen(un.X).(type) {
					case *ast.SelectorExpr:
						if v := selectedField(pkg.Info, target); v != nil {
							atomicFields[v] = n.Pos()
							atomicArgPos[target] = true
						}
					case *ast.IndexExpr:
						if v := baseVar(pkg.Info, target.X); v != nil {
							atomicElems[v] = n.Pos()
							atomicArgPos[target] = true
						}
						// &s.f[i]: the elements of field f are the cell.
						if sel, ok := ast.Unparen(target.X).(*ast.SelectorExpr); ok {
							if v := selectedField(pkg.Info, sel); v != nil {
								atomicElems[v] = n.Pos()
							}
						}
					}
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 && len(atomicElems) == 0 {
		return
	}

	// Pass 2: find plain accesses of the same cells.
	for _, file := range pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if atomicArgPos[n] {
					return true
				}
				v := selectedField(pkg.Info, n)
				if v == nil {
					return true
				}
				if _, tracked := atomicFields[v]; !tracked {
					return true
				}
				if inCompositeLit(stack) || receiverIsLocal(pkg.Info, n.X, declFunc, localCreated, stack) {
					return true
				}
				pass.Reportf(n.Pos(),
					"plain access of field %s.%s, which is accessed atomically elsewhere in this package (use sync/atomic, or annotate the package //gee:racy if the race is intended)",
					fieldOwnerName(v), v.Name())
			case *ast.IndexExpr:
				if atomicArgPos[n] {
					return true
				}
				v := baseVar(pkg.Info, n.X)
				if v == nil {
					return true
				}
				if _, tracked := atomicElems[v]; !tracked {
					return true
				}
				// Plain element access is only a finding inside a
				// closure nested below the declaring function — the
				// parallel-worker shape.
				fn := enclosingFunc(stack)
				if _, isLit := fn.(*ast.FuncLit); !isLit {
					return true
				}
				if declFunc[v] == fn {
					return true // the closure's own local
				}
				pass.Reportf(n.Pos(),
					"plain access of %s[...] inside a parallel closure, but %s's elements are accessed atomically in this package (use an atomic load/store)",
					v.Name(), v.Name())
			}
			return true
		})
	}
}

// selectedField resolves a selector to the struct field it denotes, or
// nil for method/package selections.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified identifiers (pkg.Var) land in Uses, not Selections.
	return nil
}

// baseVar resolves the base of an index expression to a variable
// (local, param, or package-level). Field bases resolve to the field
// var.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		return selectedField(info, x)
	}
	return nil
}

// inCompositeLit reports whether the node is being used inside a
// composite literal (field initialization before the value escapes).
func inCompositeLit(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.CompositeLit:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// receiverIsLocal reports whether the base variable of the selector was
// created (by := or var, not received as a parameter) in the function
// performing the access — single-owner setup of a value that has not
// escaped yet (e.g. s := &streamer{}; s.n = 0).
func receiverIsLocal(info *types.Info, recv ast.Expr, declFunc map[*types.Var]ast.Node, localCreated map[*types.Var]bool, stack []ast.Node) bool {
	root := identRoot(recv)
	if root == nil {
		return false
	}
	v, ok := info.Uses[root].(*types.Var)
	if !ok {
		return false
	}
	fn := enclosingFunc(stack)
	return fn != nil && declFunc[v] == fn && localCreated[v]
}

// fieldOwnerName names the struct type owning a field, best-effort.
func fieldOwnerName(v *types.Var) string {
	if v.Pkg() == nil {
		return "?"
	}
	// The field's parent struct type is not directly recorded; report
	// the package-qualified field for orientation.
	return v.Pkg().Name()
}
