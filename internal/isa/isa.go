// Package isa defines the abstract instruction set seen by the simulator.
//
// The simulator is trace-driven in the SMTsim style: instructions carry a
// class, register dependencies and (for memory operations) an effective
// address, but no data values. Timing is fully determined by this
// information plus the machine state.
package isa

import "fmt"

// Class is the functional class of an instruction. It determines the issue
// queue, the execution unit pool and the execution latency.
type Class uint8

const (
	// ClassInt is a single-cycle integer ALU operation.
	ClassInt Class = iota
	// ClassIntMul is a multi-cycle integer multiply/divide.
	ClassIntMul
	// ClassFP is a pipelined floating-point operation.
	ClassFP
	// ClassFPDiv is a long-latency floating-point divide/sqrt.
	ClassFPDiv
	// ClassLoad reads memory through the data cache.
	ClassLoad
	// ClassStore writes memory through the data cache at commit.
	ClassStore
	// ClassBranch is a conditional branch resolved in the integer pipeline.
	ClassBranch
	// ClassCall is a subroutine call (pushes the RAS).
	ClassCall
	// ClassReturn is a subroutine return (pops the RAS).
	ClassReturn
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String returns the conventional mnemonic family for the class.
func (c Class) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassIntMul:
		return "imul"
	case ClassFP:
		return "fp"
	case ClassFPDiv:
		return "fpdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassCall:
		return "call"
	case ClassReturn:
		return "return"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsMem reports whether the class accesses the data cache.
//
//mflush:hotpath
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsControl reports whether the class can redirect fetch.
func (c Class) IsControl() bool {
	return c == ClassBranch || c == ClassCall || c == ClassReturn
}

// UsesFP reports whether the class issues from the floating-point queue.
//
//mflush:hotpath
func (c Class) UsesFP() bool { return c == ClassFP || c == ClassFPDiv }

// ExecLatency returns the execution latency in cycles for the class,
// excluding memory-hierarchy time for loads/stores.
//
//mflush:hotpath
func (c Class) ExecLatency() int {
	switch c {
	case ClassInt, ClassBranch, ClassCall, ClassReturn:
		return 1
	case ClassIntMul:
		return 6
	case ClassFP:
		return 4
	case ClassFPDiv:
		return 16
	case ClassLoad, ClassStore:
		return 1 // address generation; cache time is added by the hierarchy
	default:
		return 1
	}
}

// Reg identifies an architectural register within a thread. The simulator
// uses a flat space of NumArchRegs registers per thread covering both the
// integer and FP files; the distinction is irrelevant for timing beyond the
// instruction class.
type Reg uint8

// NumArchRegs is the size of the per-thread architectural register file.
// Alpha has 31 integer + 31 FP writable registers; we model 64 names.
const NumArchRegs = 64

// InvalidReg marks an absent register operand.
const InvalidReg Reg = 0xFF

// Inst is one trace record: a dynamic instruction as produced by the trace
// front-end. Fields are plain values so Inst can be copied freely and
// serialised with encoding/binary.
type Inst struct {
	// PC is the instruction address (used for branch prediction and
	// icache indexing).
	PC uint64
	// Class is the functional class.
	Class Class
	// Dest is the destination register, or InvalidReg if none.
	Dest Reg
	// Src1, Src2 are source registers, or InvalidReg if absent.
	Src1, Src2 Reg
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Taken is the actual outcome for control instructions.
	Taken bool
	// MissLatency, when non-zero, overrides the configured main-memory
	// latency (in cycles) for this instruction's L2 miss, should it miss.
	// Scenario traces use it to model far-memory tails and latency
	// phases; synthetic generators leave it zero.
	MissLatency uint32
	// Target is the actual target for taken control instructions.
	Target uint64
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool { return in.Dest != InvalidReg }

// String renders a short human-readable form, useful in test failures.
func (in *Inst) String() string {
	switch {
	case in.Class.IsMem():
		return fmt.Sprintf("%#x %s r%d <- [%#x]", in.PC, in.Class, in.Dest, in.Addr)
	case in.Class.IsControl():
		return fmt.Sprintf("%#x %s taken=%t -> %#x", in.PC, in.Class, in.Taken, in.Target)
	default:
		return fmt.Sprintf("%#x %s r%d <- r%d, r%d", in.PC, in.Class, in.Dest, in.Src1, in.Src2)
	}
}
