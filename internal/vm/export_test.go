package vm

import "softbound/internal/ir"

// DecodedFunc returns fn's body in the fast engine's cached decode of
// mod, as an opaque pointer for identity checks, or nil when mod's
// decode has no fn.
func DecodedFunc(mod *ir.Module, fn *ir.Func) any {
	if df := decoded(mod).funcs[fn]; df != nil {
		return df
	}
	return nil
}
