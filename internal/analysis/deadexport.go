package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DeadExport flags an exported package-level func, method, type, alias,
// const or var of a non-main package that nothing uses, or that only
// its own package's _test.go files use: a check only its unit test
// calls is not part of the system. Uses are typed uses anywhere in the
// module, plus the identifiers of nested modules (perfbench/) matched
// by name; a method is also used when an interface its receiver type
// implements requires it (heap.Interface, io.Writer, ...). See
// docs/static-analysis.md.
var DeadExport = &Analyzer{
	Name:   "deadexport",
	Doc:    "flag exported API of a non-main package that nothing in the module (or a nested module, by name) uses outside its own package's tests",
	Run:    runDeadExport,
	Module: true,
}

func runDeadExport(pass *Pass) {
	mod := pass.Module
	if pass.Pkg().Name() == "main" {
		return
	}
	if mod.uses == nil {
		indexExports(mod)
	}
	fset := pass.Unit.Fset
	for _, f := range pass.Files() {
		if pass.InTestFile(f.Package) {
			continue
		}
		dir := filepath.Dir(fset.Position(f.Package).Filename)
		for _, d := range f.Decls {
			forExports(d, func(id *ast.Ident, decl ast.Node) {
				key := exportKey(pass.Info().Defs[id])
				if key == "" || mod.required[key] || mod.ExternNames[id.Name] {
					return
				}
				used, testUsed := false, false
				for _, pos := range mod.uses[key] {
					if pos >= decl.Pos() && pos < decl.End() {
						continue // recursion, or a type naming itself
					}
					file := fset.Position(pos).Filename
					own := isTestFile(file) && filepath.Dir(file) == dir
					used, testUsed = used || !own, testUsed || own
				}
				name := strings.TrimPrefix(key, pass.Pkg().Path()+".")
				switch {
				case used:
				case testUsed:
					pass.Reportf(id.Pos(), "exported %s is used only by its own package's tests: delete it with those tests, or move it into a _test.go file", name)
				default:
					pass.Reportf(id.Pos(), "exported %s has no use in the module: delete it", name)
				}
			})
		}
	}
}

// forExports calls visit for each exported name a top-level
// declaration declares, with the node spanning its declaration.
func forExports(d ast.Decl, visit func(id *ast.Ident, decl ast.Node)) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() {
			visit(d.Name, d)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					visit(s.Name, s)
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						visit(id, s)
					}
				}
			}
		}
	}
}

// indexExports fills mod.uses with every use of a package-level object
// or method in the module, and mod.required with the methods that
// interfaces require. Interfaces
// come from every type expression of the module and from the scope of
// every package it imports, directly or not. Each unit type-checks its
// own copy of an import, so an interface is matched by method name and
// full-path signature rather than by types.Implements.
func indexExports(mod *Module) {
	mod.uses, mod.required = make(map[string][]token.Pos), make(map[string]bool)
	var ifaces [][]string
	seen := make(map[string]bool) // interface method lists and package paths
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		req := make([]string, it.NumMethods())
		for i := range req {
			req[i] = methodSig(it.Method(i))
		}
		if key := strings.Join(req, ";"); !seen[key] {
			seen[key] = true
			ifaces = append(ifaces, req)
		}
	}
	var addScope func(*types.Package)
	addScope = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	var named []*types.Named
	for _, u := range mod.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if key := exportKey(u.Info.Uses[id]); key != "" {
						mod.uses[key] = append(mod.uses[key], id.Pos())
					}
				}
				return true
			})
		}
		for _, tv := range u.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		addScope(u.Pkg)
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn.Type().(*types.Named))
			}
		}
	}
	for _, n := range named {
		mset := types.NewMethodSet(types.NewPointer(n))
		have := make(map[string]types.Object, mset.Len())
		for i := 0; i < mset.Len(); i++ {
			have[methodSig(mset.At(i).Obj().(*types.Func))] = mset.At(i).Obj()
		}
	next:
		for _, req := range ifaces {
			for _, m := range req {
				if have[m] == nil {
					continue next
				}
			}
			for _, m := range req {
				mod.required[exportKey(have[m])] = true
			}
		}
	}
}

// methodSig spells a method's name and signature with full import
// paths, leaving out the receiver and the parameter names.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	s := fn.Name()
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		s += "("
		for i := 0; i < t.Len(); i++ {
			s += types.TypeString(t.At(i).Type(), nil) + ","
		}
		s += ")"
	}
	if sig.Variadic() {
		s += "..."
	}
	return s
}

// exportKey names a package-level object, or a method of a named type,
// by import path, so the declaration and every unit's imported copy of
// it share one key. Other objects get "".
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if obj = fn.Origin(); fn.Type().(*types.Signature).Recv() != nil {
			if named := receiverNamed(fn.Origin()); named != nil {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverNamed returns the named type a method is declared on, nil
// for a method of an unnamed interface.
func receiverNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}
