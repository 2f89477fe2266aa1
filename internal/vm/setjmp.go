package vm

import (
	"fmt"

	"softbound/internal/ir"
)

// setjmp/longjmp support. The jmp_buf lives in ordinary user memory, so a
// buffer overflow can overwrite the saved context — exactly the attack
// surface in the Wilander suite's longjmp tests (Table 3). The first word
// of the jmp_buf holds a checkpoint token; longjmp through a token that
// has been replaced by a function address transfers control there (a
// successful hijack), and any other corruption crashes.

func (v *VM) doSetjmp(f *frame, in *ir.Inst, args []uint64) error {
	env := args[0]
	tok := JmpTokenBase + v.nextJmp*16
	v.nextJmp++
	v.jmpPoints[tok] = &jmpCheckpoint{
		depth:     len(v.stack),
		shadowLen: len(v.shadow),
		block:     f.block,
		ip:        f.ip,
		fip:       f.fip,
		retDst:    in.Dst,
	}
	v.jmpSPs[tok] = v.sp
	if err := v.mem.WriteU64(env, tok); err != nil {
		return err
	}
	if in.Dst != ir.NoReg {
		f.regs[in.Dst] = 0
	}
	v.stats.SimInsts += 10
	f.ip++
	f.fip++
	return nil
}

func (v *VM) doLongjmp(f *frame, args []uint64) error {
	env, val := args[0], uint64(1)
	if len(args) > 1 {
		val = args[1]
	}
	if val == 0 {
		val = 1
	}
	tok, err := v.mem.ReadU64(env)
	if err != nil {
		return err
	}
	v.stats.SimInsts += 10
	if cp, ok := v.jmpPoints[tok]; ok && cp.depth <= len(v.stack) {
		// Frames abandoned by the longjmp bypass popFrame; revoke their
		// temporal locks here so pointers into them die with them.
		for i := cp.depth; i < len(v.stack); i++ {
			if l := v.stack[i].lock; l != 0 {
				v.revokeLock(l)
				v.stack[i].lock = 0
			}
		}
		v.stack = v.stack[:cp.depth]
		v.sp = v.jmpSPs[tok]
		// Unwind the shadow stack with the frames: every window pushed
		// by calls since the setjmp is abandoned.
		if cp.shadowLen <= len(v.shadow) {
			v.shadow = v.shadow[:cp.shadowLen]
		}
		top := &v.stack[len(v.stack)-1]
		top.block = cp.block
		top.ip = cp.ip + 1   // resume after the setjmp call
		top.fip = cp.fip + 1 // same point in the decoded body
		if cp.retDst != ir.NoReg {
			top.regs[cp.retDst] = val
		}
		return nil
	}
	if target := v.funcByAddr(tok); target != nil {
		// Corrupted jmp_buf redirected control: the attack succeeded.
		// The hijacked target runs with a fresh, empty shadow window.
		v.Hijacks = append(v.Hijacks, ControlHijack{Via: "longjmp", Target: target.Name})
		wbase := v.pushShadow(0)
		if err := v.pushFrame(target, nil, nil); err != nil {
			return err
		}
		v.stack[len(v.stack)-1].shadowBase = wbase
		return nil
	}
	return &RuntimeError{Msg: fmt.Sprintf("longjmp through corrupted jmp_buf (token 0x%x)", tok)}
}
