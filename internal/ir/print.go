package ir

import (
	"fmt"
	"strings"
)

// String renders the module in a textual assembly-like form, used by
// golden tests and -dump debugging.
func (m *Module) String() string {
	var b strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "global @%s size=%d", g.Name, g.Size)
		if g.ReadOnly {
			b.WriteString(" ro")
		}
		if g.ContainsPtr {
			b.WriteString(" hasptr")
		}
		b.WriteString("\n")
	}
	for _, f := range m.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}

// String renders the function.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nfunc %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%%d:%s", i, p.Class)
		if p.IsPtr {
			b.WriteString("*")
		}
	}
	if f.Variadic {
		b.WriteString(", ...")
	}
	b.WriteString(")")
	if f.Transformed {
		fmt.Fprintf(&b, " ; softbound as %s", f.SBName)
	}
	b.WriteString("\n")
	for bi, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d: ; %s\n", bi, blk.Name)
		for i := range blk.Insts {
			fmt.Fprintf(&b, "  %s\n", blk.Insts[i].String())
		}
	}
	return b.String()
}

// String renders one instruction.
func (in *Inst) String() string {
	switch in.Kind {
	case KConst, KMov:
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Kind, in.A)
	case KBin:
		s := fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
		if in.IntWidth != 0 && in.IntWidth != 64 {
			s += fmt.Sprintf(" w%d", in.IntWidth)
		}
		if in.Signed {
			s += " signed"
		}
		return s
	case KUn:
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	case KCmp:
		return fmt.Sprintf("%s = cmp %s %s, %s", in.Dst, in.Pred, in.A, in.B)
	case KConv:
		return fmt.Sprintf("%s = conv %s to %s (w%d signed=%v)", in.Dst, in.A, in.Mem, in.IntWidth, in.Signed)
	case KAlloca:
		return fmt.Sprintf("%s = alloca %d ; %s", in.Dst, in.Size, in.Name)
	case KLoad:
		return fmt.Sprintf("%s = load %s %s", in.Dst, in.Mem, in.A)
	case KStore:
		return fmt.Sprintf("store %s %s, %s", in.Mem, in.A, in.B)
	case KGEP:
		return fmt.Sprintf("%s = gep %s + %s*%d + %d", in.Dst, in.A, in.B, in.Size, in.C.Int)
	case KCall:
		var args []string
		for _, a := range in.Args {
			args = append(args, a.String())
		}
		dst := ""
		if in.Dst != NoReg {
			dst = fmt.Sprintf("%s = ", in.Dst)
			if in.RetMetaValid {
				dst = fmt.Sprintf("%s,%s = ", in.Dst, joinMeta(in.MetaDst[:in.MetaWords()]))
			}
		}
		s := fmt.Sprintf("%scall %s(%s)", dst, in.Callee, strings.Join(args, ", "))
		// Every shadow-stack slot the caller fills is printed, including
		// slots whose Arg index does not name an argument (a malformed
		// module prints what would actually flow, never a truncation).
		if len(in.Shadow) > 0 {
			var slots []string
			for _, sl := range in.Shadow {
				slots = append(slots, fmt.Sprintf("%d:[%s]", sl.Arg, joinMeta(sl.Meta[:in.MetaWords()])))
			}
			s += fmt.Sprintf(" shadow{%s}", strings.Join(slots, ", "))
		}
		return s
	case KRet:
		if !in.HasVal {
			return "ret"
		}
		if in.RetMetaValid {
			return fmt.Sprintf("ret %s [%s]", in.A, joinMeta(in.Meta[:in.MetaWords()]))
		}
		return fmt.Sprintf("ret %s", in.A)
	case KBr:
		return fmt.Sprintf("br b%d", in.Target)
	case KCondBr:
		return fmt.Sprintf("condbr %s, b%d, b%d", in.A, in.Target, in.Else)
	case KCheck:
		s := fmt.Sprintf("check.%s %s in [%s, %s) size=%d",
			in.CheckK, in.A, in.Meta[0], in.Meta[1], in.AccessSize)
		if in.TMeta {
			s += fmt.Sprintf(" key=%s lock=%s", in.Meta[2], in.Meta[3])
		}
		return s
	case KMetaLoad:
		return fmt.Sprintf("%s = metaload %s", joinMeta(in.MetaDst[:in.MetaWords()]), in.A)
	case KMetaStore:
		return fmt.Sprintf("metastore %s, [%s]", in.A, joinMeta(in.Meta[:in.MetaWords()]))
	case KMetaClear:
		return fmt.Sprintf("metaclear %s, %s", in.A, in.B)
	case KUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("inst(%d)", in.Kind)
}

// joinMeta renders the words of a metadata tuple in use, comma-separated.
func joinMeta[T fmt.Stringer](words []T) string {
	var b strings.Builder
	for i, w := range words {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(w.String())
	}
	return b.String()
}

// IsTerminator reports whether the instruction ends a block.
func (in *Inst) IsTerminator() bool {
	switch in.Kind {
	case KRet, KBr, KCondBr, KUnreachable:
		return true
	}
	return false
}
