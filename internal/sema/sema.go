// Package sema implements semantic analysis for the C subset: name
// resolution with block scoping, type checking with C's conversion rules,
// lvalue checking, and call signature checking. It annotates the AST with
// types and produces an Info table that maps identifier uses to symbols,
// which the IR generator consumes.
package sema

import (
	"fmt"
	"strings"

	"softbound/internal/cast"
	"softbound/internal/ctoken"
	"softbound/internal/ctypes"
)

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	SymLocal SymKind = iota
	SymParam
	SymGlobal
	SymFunc
)

// Symbol is a named program entity.
type Symbol struct {
	Name string
	Kind SymKind
	Type *ctypes.Type
	// ID is unique within a function for locals/params, and unique
	// within the unit for globals. irgen uses it to name storage.
	ID int
	// Decl links back to the declaration (a *cast.VarDecl or *cast.FuncDecl).
	Decl cast.Node
}

// FuncInfo carries per-function analysis results.
type FuncInfo struct {
	Decl   *cast.FuncDecl
	Sym    *Symbol
	Params []*Symbol
	Locals []*Symbol // all block-scoped locals, flattened, unique IDs
	Labels map[string]bool
}

// Info is the result of analysis.
type Info struct {
	Unit  *cast.TranslationUnit
	Refs  map[*cast.Ident]*Symbol
	Funcs map[string]*FuncInfo
	// Globals in declaration order (tentative+extern collapsed).
	Globals []*Symbol
	// FuncSyms maps function name to its symbol.
	FuncSyms map[string]*Symbol
}

// ErrorList accumulates semantic errors.
type ErrorList []error

func (l ErrorList) Error() string {
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

type checker struct {
	info *Info
	errs ErrorList

	// scopes is a stack of name→symbol maps; scopes[0] is file scope.
	scopes []map[string]*Symbol

	fn      *FuncInfo
	localID int
	enums   map[string]int64
}

// Analyze type-checks the unit. Externs is a set of previously analyzed
// units whose functions and globals are visible (separate compilation);
// it may be nil.
func Analyze(unit *cast.TranslationUnit, externs ...*Info) (*Info, error) {
	c := &checker{
		info: &Info{
			Unit:     unit,
			Refs:     make(map[*cast.Ident]*Symbol),
			Funcs:    make(map[string]*FuncInfo),
			FuncSyms: make(map[string]*Symbol),
		},
		enums: unit.Enums,
	}
	fileScope := make(map[string]*Symbol)
	c.scopes = []map[string]*Symbol{fileScope}

	// Import externally visible symbols from other units.
	for _, ext := range externs {
		if ext == nil {
			continue
		}
		for _, g := range ext.Globals {
			if _, ok := fileScope[g.Name]; !ok {
				fileScope[g.Name] = g
			}
		}
		for name, s := range ext.FuncSyms {
			if _, ok := fileScope[name]; !ok {
				fileScope[name] = s
			}
		}
	}

	// Declare all functions and globals first (C allows forward use of
	// functions declared earlier in the file; we are slightly more
	// permissive and allow any order, which the benchmarks rely on).
	gid := 0
	for _, g := range unit.Globals {
		if prev, ok := fileScope[g.Name]; ok {
			// Tentative redefinition: keep the completed type.
			if prev.Kind == SymGlobal && g.Type.IsComplete() {
				prev.Type = g.Type
			}
			continue
		}
		sym := &Symbol{Name: g.Name, Kind: SymGlobal, Type: g.Type, ID: gid, Decl: g}
		gid++
		fileScope[g.Name] = sym
		c.info.Globals = append(c.info.Globals, sym)
	}
	for _, f := range unit.Funcs {
		if prev, ok := fileScope[f.Name]; ok {
			if prev.Kind != SymFunc {
				c.errorf(f.Pos(), "%q redeclared as function", f.Name)
			}
			c.info.FuncSyms[f.Name] = prev
			continue
		}
		sym := &Symbol{Name: f.Name, Kind: SymFunc, Type: f.FuncType(), Decl: f}
		fileScope[f.Name] = sym
		c.info.FuncSyms[f.Name] = sym
	}

	// Check global initializers (identifiers within them must resolve —
	// address-of-global and function-designator initializers are legal
	// constants).
	for _, g := range unit.Globals {
		if g.Init == nil {
			continue
		}
		if g.Type.Kind == ctypes.Array && g.Type.ArrayLen < 0 {
			g.Type = completeArrayFromInit(g.Type, g.Init)
			// Only a global's type is completed: a function symbol of
			// the same name may belong to an extern unit, which other
			// compilations share (the driver's cached libc unit).
			if sym := fileScope[g.Name]; sym != nil && sym.Kind == SymGlobal {
				sym.Type = g.Type
			}
		}
		c.checkInit(g.Type, g.Init)
	}

	// Check function bodies.
	for _, f := range unit.Funcs {
		if f.Body == nil {
			continue
		}
		if prev, ok := c.info.Funcs[f.Name]; ok && prev.Decl.Body != nil {
			c.errorf(f.Pos(), "function %q redefined", f.Name)
			continue
		}
		c.checkFunc(f)
	}
	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

func (c *checker) errorf(pos ctoken.Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*Symbol)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(sym *Symbol, pos ctoken.Pos) {
	top := c.scopes[len(c.scopes)-1]
	if _, ok := top[sym.Name]; ok {
		c.errorf(pos, "%q redeclared in this scope", sym.Name)
		return
	}
	top[sym.Name] = sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func (c *checker) checkFunc(f *cast.FuncDecl) {
	fi := &FuncInfo{
		Decl:   f,
		Sym:    c.scopes[0][f.Name],
		Labels: make(map[string]bool),
	}
	c.info.Funcs[f.Name] = fi
	c.fn = fi
	c.localID = 0
	c.push()
	for _, p := range f.Params {
		sym := &Symbol{Name: p.Name, Kind: SymParam, Type: p.Type.Decay(), ID: c.localID, Decl: f}
		c.localID++
		fi.Params = append(fi.Params, sym)
		if p.Name != "" {
			c.declare(sym, f.Pos())
		}
	}
	collectLabels(f.Body, fi.Labels)
	c.checkStmt(f.Body)
	c.pop()
	c.fn = nil
}

func collectLabels(s cast.Stmt, labels map[string]bool) {
	switch x := s.(type) {
	case *cast.Labeled:
		labels[x.Label] = true
		collectLabels(x.Stmt, labels)
	case *cast.Block:
		for _, st := range x.Stmts {
			collectLabels(st, labels)
		}
	case *cast.If:
		collectLabels(x.Then, labels)
		if x.Else != nil {
			collectLabels(x.Else, labels)
		}
	case *cast.While:
		collectLabels(x.Body, labels)
	case *cast.DoWhile:
		collectLabels(x.Body, labels)
	case *cast.For:
		collectLabels(x.Body, labels)
	case *cast.Switch:
		for _, cs := range x.Cases {
			for _, st := range cs.Body {
				collectLabels(st, labels)
			}
		}
	}
}

// ---------------------------------------------------------------- statements

func (c *checker) checkStmt(s cast.Stmt) {
	switch x := s.(type) {
	case *cast.Block:
		c.push()
		for _, st := range x.Stmts {
			c.checkStmt(st)
		}
		c.pop()
	case *cast.ExprStmt:
		c.checkExpr(x.X)
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if !d.Type.IsComplete() && d.Type.Kind != ctypes.Array {
				c.errorf(d.Pos(), "variable %q has incomplete type %s", d.Name, d.Type)
			}
			// An incomplete array completed by its initializer:
			// char s[] = "hi"; int a[] = {1,2,3};
			if d.Type.Kind == ctypes.Array && d.Type.ArrayLen < 0 && d.Init != nil {
				d.Type = completeArrayFromInit(d.Type, d.Init)
			}
			sym := &Symbol{Name: d.Name, Kind: SymLocal, Type: d.Type, ID: c.localID, Decl: d}
			c.localID++
			c.fn.Locals = append(c.fn.Locals, sym)
			c.declare(sym, d.Pos())
			if d.Init != nil {
				c.checkInit(d.Type, d.Init)
			}
		}
	case *cast.If:
		c.checkCond(x.Cond)
		c.checkStmt(x.Then)
		if x.Else != nil {
			c.checkStmt(x.Else)
		}
	case *cast.While:
		c.checkCond(x.Cond)
		c.checkStmt(x.Body)
	case *cast.DoWhile:
		c.checkStmt(x.Body)
		c.checkCond(x.Cond)
	case *cast.For:
		c.push()
		if x.Init != nil {
			c.checkStmt(x.Init)
		}
		if x.Cond != nil {
			c.checkCond(x.Cond)
		}
		if x.Post != nil {
			c.checkExpr(x.Post)
		}
		c.checkStmt(x.Body)
		c.pop()
	case *cast.Return:
		ret := c.fn.Decl.Ret
		if x.X != nil {
			t := c.checkExpr(x.X)
			if ret.Kind == ctypes.Void {
				c.errorf(x.Pos(), "return with value in void function %q", c.fn.Decl.Name)
			} else if t != nil && !ctypes.AssignCompatible(ret, t) {
				c.errorf(x.Pos(), "cannot return %s from function returning %s", t, ret)
			}
		} else if ret.Kind != ctypes.Void {
			// Returning nothing from a non-void function is accepted
			// (common in legacy C); the value is unspecified.
			_ = ret
		}
	case *cast.Break, *cast.Continue:
		// Loop context checking is handled syntactically by irgen.
	case *cast.Goto:
		if !c.fn.Labels[x.Label] {
			c.errorf(x.Pos(), "goto undefined label %q", x.Label)
		}
	case *cast.Labeled:
		c.checkStmt(x.Stmt)
	case *cast.Switch:
		t := c.checkExpr(x.Tag)
		if t != nil && !t.IsInteger() {
			c.errorf(x.Pos(), "switch tag must be integer, have %s", t)
		}
		seen := make(map[int64]bool)
		sawDefault := false
		for _, cs := range x.Cases {
			if cs.IsDefault {
				if sawDefault {
					c.errorf(cs.Pos, "duplicate default case")
				}
				sawDefault = true
			} else {
				if seen[cs.Value] {
					c.errorf(cs.Pos, "duplicate case value %d", cs.Value)
				}
				seen[cs.Value] = true
			}
			c.push()
			for _, st := range cs.Body {
				c.checkStmt(st)
			}
			c.pop()
		}
	default:
		c.errorf(s.Pos(), "internal: unknown statement %T", s)
	}
}

func (c *checker) checkCond(e cast.Expr) {
	t := c.checkExpr(e)
	if t != nil && !t.IsScalar() {
		c.errorf(e.Pos(), "condition must be scalar, have %s", t)
	}
}

func completeArrayFromInit(t *ctypes.Type, init *cast.Init) *ctypes.Type {
	if init.Expr != nil {
		if s, ok := init.Expr.(*cast.StringLit); ok {
			return ctypes.ArrayOf(t.Elem, int64(len(s.Value))+1)
		}
		return t
	}
	return ctypes.ArrayOf(t.Elem, int64(len(init.List)))
}

func (c *checker) checkInit(t *ctypes.Type, init *cast.Init) {
	if init.Expr != nil {
		if s, ok := init.Expr.(*cast.StringLit); ok && t.Kind == ctypes.Array {
			s.SetType(ctypes.ArrayOf(ctypes.CharType, int64(len(s.Value))+1))
			if t.ArrayLen >= 0 && int64(len(s.Value))+1 > t.ArrayLen+1 {
				c.errorf(init.Pos, "string too long for array of %d", t.ArrayLen)
			}
			return
		}
		et := c.checkExpr(init.Expr)
		if et != nil && !ctypes.AssignCompatible(t.Decay(), et) && t.Kind != ctypes.Array {
			c.errorf(init.Pos, "cannot initialize %s with %s", t, et)
		}
		return
	}
	// Brace list.
	switch t.Kind {
	case ctypes.Array:
		for i, item := range init.List {
			if t.ArrayLen >= 0 && int64(i) >= t.ArrayLen {
				c.errorf(item.Pos, "too many initializers for %s", t)
				break
			}
			c.checkInit(t.Elem, item)
		}
	case ctypes.Struct:
		for i, item := range init.List {
			if i >= len(t.Fields) {
				c.errorf(item.Pos, "too many initializers for %s", t)
				break
			}
			c.checkInit(t.Fields[i].Type, item)
		}
	default:
		if len(init.List) == 1 {
			c.checkInit(t, init.List[0])
			return
		}
		c.errorf(init.Pos, "brace initializer for scalar %s", t)
	}
}
