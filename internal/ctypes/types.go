// Package ctypes implements the C type system used by the SoftBound front
// end: sizes, alignment, struct layout, and the usual-arithmetic-conversion
// and compatibility rules needed by the typechecker and IR lowering.
//
// The target model is LP64 little-endian (the paper evaluates on 64-bit
// x86): char=1, short=2, int=4, long=8, pointer=8, float=4, double=8.
package ctypes

import (
	"fmt"
	"strings"
)

// Kind discriminates the type variants.
type Kind int

// Type kinds.
const (
	Void Kind = iota
	Char
	Short
	Int
	Long
	Float
	Double
	Pointer
	Array
	Struct // also used for unions (IsUnion set)
	Func
	Enum
)

// Target sizes in bytes (LP64).
const (
	PtrSize  = 8
	WordSize = 8
)

// Type describes a C type. Types are immutable after construction except
// that struct bodies may be completed in place (to permit recursive types,
// mirroring the paper's "named structure types").
type Type struct {
	Kind     Kind
	Unsigned bool // for Char/Short/Int/Long

	// Pointer and Array element type; Func return type.
	Elem *Type

	// Array length in elements. Negative means incomplete ([]).
	ArrayLen int64

	// Struct/union.
	StructName string // tag; "" for anonymous
	Fields     []Field
	IsUnion    bool
	complete   bool
	size       int64
	align      int64

	// Func.
	Params   []*Type
	Variadic bool
}

// Field is a struct or union member.
type Field struct {
	Name   string
	Type   *Type
	Offset int64 // byte offset within the struct (0 for union members)
}

// Singleton basic types. These are shared; never mutate them.
var (
	VoidType   = &Type{Kind: Void}
	CharType   = &Type{Kind: Char}
	UCharType  = &Type{Kind: Char, Unsigned: true}
	ShortType  = &Type{Kind: Short}
	UShortType = &Type{Kind: Short, Unsigned: true}
	IntType    = &Type{Kind: Int}
	UIntType   = &Type{Kind: Int, Unsigned: true}
	LongType   = &Type{Kind: Long}
	ULongType  = &Type{Kind: Long, Unsigned: true}
	FloatType  = &Type{Kind: Float}
	DoubleType = &Type{Kind: Double}
)

// PointerTo returns a pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Pointer, Elem: elem} }

// ArrayOf returns an array type of n elems.
func ArrayOf(elem *Type, n int64) *Type {
	return &Type{Kind: Array, Elem: elem, ArrayLen: n}
}

// IncompleteArrayOf returns an array type of unknown length.
func IncompleteArrayOf(elem *Type) *Type {
	return &Type{Kind: Array, Elem: elem, ArrayLen: -1}
}

// FuncOf returns a function type.
func FuncOf(ret *Type, params []*Type, variadic bool) *Type {
	return &Type{Kind: Func, Elem: ret, Params: params, Variadic: variadic}
}

// NewStruct returns an incomplete struct (or union) type with the given tag.
func NewStruct(tag string, isUnion bool) *Type {
	return &Type{Kind: Struct, StructName: tag, IsUnion: isUnion}
}

// Complete lays out the given fields into t, computing offsets, size, and
// alignment. It returns an error on duplicate field names or incomplete
// member types.
func (t *Type) Complete(fields []Field) error {
	if t.Kind != Struct {
		return fmt.Errorf("Complete on non-struct type %s", t)
	}
	if t.complete {
		return fmt.Errorf("struct %s redefined", t.StructName)
	}
	seen := make(map[string]bool)
	var off, maxAlign, maxSize int64
	maxAlign = 1
	for i := range fields {
		f := &fields[i]
		if seen[f.Name] {
			return fmt.Errorf("duplicate field %q in struct %s", f.Name, t.StructName)
		}
		seen[f.Name] = true
		if !f.Type.IsComplete() {
			return fmt.Errorf("field %q has incomplete type %s", f.Name, f.Type)
		}
		a := f.Type.Align()
		if a > maxAlign {
			maxAlign = a
		}
		if t.IsUnion {
			f.Offset = 0
			if sz := f.Type.Size(); sz > maxSize {
				maxSize = sz
			}
		} else {
			off = alignUp(off, a)
			f.Offset = off
			off += f.Type.Size()
		}
	}
	if t.IsUnion {
		off = maxSize
	}
	t.Fields = fields
	t.size = alignUp(off, maxAlign)
	if t.size == 0 {
		t.size = 1 // empty structs occupy one byte, as in practice
	}
	t.align = maxAlign
	t.complete = true
	return nil
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

// IsComplete reports whether the type's size is known.
func (t *Type) IsComplete() bool {
	switch t.Kind {
	case Void:
		return false
	case Struct:
		return t.complete
	case Array:
		return t.ArrayLen >= 0 && t.Elem.IsComplete()
	}
	return true
}

// Size returns the size of the type in bytes. Incomplete types and
// functions have size 0; void has size 1 for the benefit of void* pointer
// arithmetic (a GCC extension the benchmarks rely on).
func (t *Type) Size() int64 {
	switch t.Kind {
	case Void:
		return 1
	case Char:
		return 1
	case Short:
		return 2
	case Int, Enum:
		return 4
	case Long:
		return 8
	case Float:
		return 4
	case Double:
		return 8
	case Pointer:
		return PtrSize
	case Array:
		if t.ArrayLen < 0 {
			return 0
		}
		return t.ArrayLen * t.Elem.Size()
	case Struct:
		return t.size
	case Func:
		return 0
	}
	return 0
}

// Align returns the alignment requirement of the type in bytes.
func (t *Type) Align() int64 {
	switch t.Kind {
	case Array:
		return t.Elem.Align()
	case Struct:
		if t.align == 0 {
			return 1
		}
		return t.align
	case Void, Char:
		return 1
	default:
		return t.Size()
	}
}

// FieldByName returns the field with the given name, or nil.
func (t *Type) FieldByName(name string) *Field {
	for i := range t.Fields {
		if t.Fields[i].Name == name {
			return &t.Fields[i]
		}
	}
	return nil
}

// Predicates.

// IsInteger reports whether t is an integer (or enum) type.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case Char, Short, Int, Long, Enum:
		return true
	}
	return false
}

// IsFloat reports whether t is a floating-point type.
func (t *Type) IsFloat() bool { return t.Kind == Float || t.Kind == Double }

// IsArithmetic reports whether t is integer or floating.
func (t *Type) IsArithmetic() bool { return t.IsInteger() || t.IsFloat() }

// IsScalar reports whether t is arithmetic or a pointer.
func (t *Type) IsScalar() bool { return t.IsArithmetic() || t.Kind == Pointer }

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == Pointer }

// IsFuncPointer reports whether t is a pointer to function.
func (t *Type) IsFuncPointer() bool {
	return t.Kind == Pointer && t.Elem.Kind == Func
}

// ContainsPointer reports whether a value of type t contains any pointer
// (directly or within a struct/array/union). SoftBound uses this to decide
// which frees/returns must clear metadata and whether memcpy must copy
// metadata (paper §5.2).
func (t *Type) ContainsPointer() bool {
	switch t.Kind {
	case Pointer:
		return true
	case Array:
		return t.Elem.ContainsPointer()
	case Struct:
		for i := range t.Fields {
			if t.Fields[i].Type.ContainsPointer() {
				return true
			}
		}
	}
	return false
}

// Decay converts array and function types to the pointer types they decay
// to in expression contexts; other types pass through.
func (t *Type) Decay() *Type {
	switch t.Kind {
	case Array:
		return PointerTo(t.Elem)
	case Func:
		return PointerTo(t)
	}
	return t
}

// IntegerRank orders integer types for the usual arithmetic conversions.
func (t *Type) IntegerRank() int {
	switch t.Kind {
	case Char:
		return 1
	case Short:
		return 2
	case Int, Enum:
		return 3
	case Long:
		return 4
	}
	return 0
}

// Promote applies the integer promotions: types narrower than int promote
// to int.
func (t *Type) Promote() *Type {
	if t.IsInteger() && t.IntegerRank() < IntType.IntegerRank() {
		return IntType
	}
	if t.Kind == Enum {
		return IntType
	}
	return t
}

// UsualArithmetic returns the common type of a binary arithmetic operation
// on a and b per C's usual arithmetic conversions.
func UsualArithmetic(a, b *Type) *Type {
	if a.Kind == Double || b.Kind == Double {
		return DoubleType
	}
	if a.Kind == Float || b.Kind == Float {
		return FloatType
	}
	a, b = a.Promote(), b.Promote()
	if a.IntegerRank() == b.IntegerRank() {
		if a.Unsigned || b.Unsigned {
			return &Type{Kind: a.Kind, Unsigned: true}
		}
		return a
	}
	if a.IntegerRank() > b.IntegerRank() {
		return a
	}
	return b
}

// Equal reports structural type equality. Named structs compare by
// identity (they are interned per translation unit by the parser).
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind || a.Unsigned != b.Unsigned {
		return false
	}
	switch a.Kind {
	case Pointer:
		return Equal(a.Elem, b.Elem)
	case Array:
		return a.ArrayLen == b.ArrayLen && Equal(a.Elem, b.Elem)
	case Struct:
		return false // distinct struct objects are distinct types
	case Func:
		if len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
			return false
		}
		if !Equal(a.Elem, b.Elem) {
			return false
		}
		for i := range a.Params {
			if !Equal(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	}
	return true
}

// AssignCompatible reports whether a value of type src may be assigned to
// dst without an explicit cast (possibly with an implicit conversion). The
// subset is permissive about pointer conversions — SoftBound explicitly
// supports arbitrary casts — but we still warn-level reject obvious
// nonsense like struct-to-int.
func AssignCompatible(dst, src *Type) bool {
	dst, src = dst.Decay(), src.Decay()
	if Equal(dst, src) {
		return true
	}
	if dst.IsArithmetic() && src.IsArithmetic() {
		return true
	}
	if dst.IsPointer() && src.IsPointer() {
		return true // arbitrary pointer conversions allowed (wild casts)
	}
	if dst.IsPointer() && src.IsInteger() {
		return true // integer→pointer: metadata becomes NULL bounds (§5.2)
	}
	if dst.IsInteger() && src.IsPointer() {
		return true
	}
	if dst.Kind == Struct && src.Kind == Struct && dst == src {
		return true
	}
	return false
}

// String renders the type in C-ish syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Void:
		return "void"
	case Char, Short, Int, Long:
		name := map[Kind]string{Char: "char", Short: "short", Int: "int", Long: "long"}[t.Kind]
		if t.Unsigned {
			return "unsigned " + name
		}
		return name
	case Float:
		return "float"
	case Double:
		return "double"
	case Enum:
		return "enum"
	case Pointer:
		return t.Elem.String() + "*"
	case Array:
		if t.ArrayLen < 0 {
			return t.Elem.String() + "[]"
		}
		return fmt.Sprintf("%s[%d]", t.Elem, t.ArrayLen)
	case Struct:
		kw := "struct"
		if t.IsUnion {
			kw = "union"
		}
		if t.StructName != "" {
			return kw + " " + t.StructName
		}
		var b strings.Builder
		b.WriteString(kw + " {")
		for i := range t.Fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s %s", t.Fields[i].Type, t.Fields[i].Name)
		}
		b.WriteString("}")
		return b.String()
	case Func:
		var b strings.Builder
		b.WriteString(t.Elem.String())
		b.WriteString(" (")
		for i, p := range t.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		if t.Variadic {
			if len(t.Params) > 0 {
				b.WriteString(", ")
			}
			b.WriteString("...")
		}
		b.WriteString(")")
		return b.String()
	}
	return fmt.Sprintf("type(%d)", t.Kind)
}
