package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkMapOrder flags range statements over maps whose bodies leak the
// (randomized) iteration order into observable output: printing or
// writing inside the loop, appending to a slice declared outside the
// loop that is never subsequently sorted, enqueueing messages, or
// keeping one iteration's key or value and leaving the loop early.
// Accumulating into another map, summing counters, and other
// order-insensitive bodies are fine.
func checkMapOrder(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Info.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if msg := p.mapOrderLeak(rng, fd); msg != "" {
					out = append(out, p.diag(ClassMapOrder, rng.For,
						"map iteration order leaks: "+msg))
				}
				return true
			})
		}
	}
	return out
}

// mapOrderLeak inspects a range-over-map body and reports the first
// order-dependent effect, or "" when the body is order-insensitive.
func (p *Package) mapOrderLeak(rng *ast.RangeStmt, encl *ast.FuncDecl) string {
	var msg string
	var appended []types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if msg != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := p.outputCall(n); ok {
				msg = fmt.Sprintf("%s inside the loop", name)
				return false
			}
			if obj := p.appendTarget(n); obj != nil && obj.Pos().IsValid() &&
				(obj.Pos() < rng.Pos() || obj.Pos() > rng.End()) {
				appended = append(appended, obj)
			}
		case *ast.SendStmt:
			msg = "channel send inside the loop"
			return false
		}
		return true
	})
	if msg != "" {
		return msg
	}
	for _, obj := range appended {
		if !p.sortedAfter(rng, encl, obj) {
			return fmt.Sprintf("appends to %q with no subsequent sort", obj.Name())
		}
	}
	return p.firstFoundLeak(rng)
}

// firstFoundLeak reports a body that keeps the first match it meets: it
// copies the range key or value into a variable declared outside the
// loop and leaves the loop early (break or return), or it returns an
// expression of the key or value. Which element wins then depends on
// iteration order.
func (p *Package) firstFoundLeak(rng *ast.RangeStmt) string {
	iter := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil {
				iter[obj] = true
			}
		}
	}
	mentions := func(es []ast.Expr) bool {
		found := false
		for _, e := range es {
			ast.Inspect(e, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				found = found || ok && iter[p.Info.Uses[id]]
				return !found
			})
		}
		return found
	}
	var copied types.Object
	exits, returned := false, false
	// walk scans n; nested is true inside a loop, switch or select of the
	// body, where an unlabeled break no longer leaves this loop.
	var walk func(n ast.Node, nested bool)
	walk = func(n ast.Node, nested bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if c != n {
					walk(c, true)
					return false
				}
			case *ast.BranchStmt:
				exits = exits || c.Tok == token.BREAK && (c.Label != nil || !nested)
			case *ast.ReturnStmt:
				exits, returned = true, returned || mentions(c.Results)
			case *ast.AssignStmt:
				if !mentions(c.Rhs) {
					break
				}
				for _, lhs := range c.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := p.Info.ObjectOf(id); obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End()) {
							copied = obj
						}
					}
				}
			}
			return true
		})
	}
	walk(rng.Body, false)
	switch {
	case returned:
		return "returns one iteration's key or value"
	case copied != nil && exits:
		return fmt.Sprintf("copies one iteration's key or value into %q and leaves the loop early", copied.Name())
	}
	return ""
}

// outputCall reports whether call emits observable output: any fmt
// function, any method named like an io writer, or an Enqueue.
func (p *Package) outputCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := p.Info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
			return "fmt." + sel.Sel.Name, true
		}
	}
	switch name := sel.Sel.Name; {
	case strings.HasPrefix(name, "Write"), strings.HasPrefix(name, "Print"),
		strings.HasPrefix(name, "Fprint"), name == "Enqueue":
		return "call to " + name, true
	}
	return "", false
}

// appendTarget returns the object a call grows via x = append(x, ...)
// patterns, i.e. the first argument of a builtin append, when it is a
// plain identifier.
func (p *Package) appendTarget(call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Info.Uses[target]
}

// sortedAfter reports whether, somewhere in the enclosing function
// after the range statement, obj is passed to a sorting call (sort.*,
// slices.Sort*, or a local helper whose name contains "sort"). That is
// the idiom that makes collect-then-sort loops deterministic.
func (p *Package) sortedAfter(rng *ast.RangeStmt, encl *ast.FuncDecl, obj types.Object) bool {
	if encl == nil || encl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !p.isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isSortCall recognizes sorting calls by package (sort, slices) or by
// name ("sort" substring, case-insensitive).
func (p *Package) isSortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := p.Info.Uses[id].(*types.PkgName); ok {
				switch pkg.Imported().Path() {
				case "sort", "slices":
					return true
				}
			}
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}
