// Package logic defines the primitive gate algebra used throughout the
// RAPIDS reproduction: gate types, controlling and non-controlling values,
// and two-valued evaluation, bit at a time or 64 patterns per word.
//
// Following the paper (§2), NAND, NOR, and XNOR are treated as inverted
// AND, OR, and XOR; the base types considered by the theory are
// {AND, OR, XOR, INV, BUF}.
package logic

import "fmt"

// GateType enumerates the library gate functions.
type GateType uint8

// Gate function types. The zero value None marks an undriven or
// uninitialized type and is never a valid gate function.
const (
	None GateType = iota
	And
	Or
	Xor
	Nand
	Nor
	Xnor
	Inv
	Buf
	// Input is a pseudo-type for primary inputs; it has no fanins.
	Input
)

var typeNames = [...]string{
	None:  "NONE",
	And:   "AND",
	Or:    "OR",
	Xor:   "XOR",
	Nand:  "NAND",
	Nor:   "NOR",
	Xnor:  "XNOR",
	Inv:   "INV",
	Buf:   "BUF",
	Input: "INPUT",
}

func (t GateType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Valid reports whether t is a concrete gate function (including Input).
func (t GateType) Valid() bool { return t > None && t <= Input }

// Base returns the non-inverted base type of t and whether t inverts it.
// NAND → (AND, true), XNOR → (XOR, true), INV → (BUF, true), etc.
func (t GateType) Base() (base GateType, inverted bool) {
	switch t {
	case Nand:
		return And, true
	case Nor:
		return Or, true
	case Xnor:
		return Xor, true
	case Inv:
		return Buf, true
	default:
		return t, false
	}
}

// WithInversion returns the gate type realizing the base function of t,
// additionally inverted when inv is true. For example,
// And.WithInversion(true) == Nand and Nand.WithInversion(true) == And.
func (t GateType) WithInversion(inv bool) GateType {
	if !inv {
		return t
	}
	switch t {
	case And:
		return Nand
	case Nand:
		return And
	case Or:
		return Nor
	case Nor:
		return Or
	case Xor:
		return Xnor
	case Xnor:
		return Xor
	case Inv:
		return Buf
	case Buf:
		return Inv
	default:
		return None
	}
}

// IsAndOr reports whether the base function of t is AND or OR — the gate
// family that has a controlling value and participates in direct backward
// implication.
func (t GateType) IsAndOr() bool {
	b, _ := t.Base()
	return b == And || b == Or
}

// IsXorLike reports whether the base function of t is XOR.
func (t GateType) IsXorLike() bool {
	b, _ := t.Base()
	return b == Xor
}

// IsUnary reports whether t is an inverter or buffer.
func (t GateType) IsUnary() bool { return t == Inv || t == Buf }

// HasControllingValue reports whether the gate family of t has a
// controlling value. XOR-family and unary gates do not.
func (t GateType) HasControllingValue() bool { return t.IsAndOr() }

// ControllingValue returns cv(t): the input value that by itself determines
// the output of a gate of type t, per §2 of the paper. It panics for types
// without a controlling value; call HasControllingValue first.
func (t GateType) ControllingValue() Bit {
	switch t {
	case And, Nand:
		return 0
	case Or, Nor:
		return 1
	}
	panic("logic: " + t.String() + " has no controlling value")
}

// NonControllingValue returns ncv(t), the complement of cv(t).
func (t GateType) NonControllingValue() Bit { return t.ControllingValue() ^ 1 }

// ControlledOutput returns the output value produced when any input of a
// gate of type t carries the controlling value.
func (t GateType) ControlledOutput() Bit {
	b, inv := t.Base()
	var out Bit
	switch b {
	case And:
		out = 0
	case Or:
		out = 1
	default:
		panic("logic: " + t.String() + " has no controlled output")
	}
	if inv {
		out ^= 1
	}
	return out
}

// NonControlledOutput returns the output value produced when all inputs of
// a gate of type t carry the non-controlling value. Setting the out-pin to
// this value is exactly the condition under which direct backward
// implication infers ncv at every in-pin (§2).
func (t GateType) NonControlledOutput() Bit { return t.ControlledOutput() ^ 1 }

// Bit is a two-valued logic value (0 or 1).
type Bit uint8

// Eval computes the two-valued output of a gate of type t over ins.
// Unary types use ins[0]; Input panics (primary inputs have no function).
func (t GateType) Eval(ins []Bit) Bit {
	switch t {
	case And, Nand:
		out := Bit(1)
		for _, v := range ins {
			out &= v
		}
		if t == Nand {
			out ^= 1
		}
		return out
	case Or, Nor:
		out := Bit(0)
		for _, v := range ins {
			out |= v
		}
		if t == Nor {
			out ^= 1
		}
		return out
	case Xor, Xnor:
		out := Bit(0)
		for _, v := range ins {
			out ^= v
		}
		if t == Xnor {
			out ^= 1
		}
		return out
	case Inv:
		return ins[0] ^ 1
	case Buf:
		return ins[0]
	}
	panic("logic: cannot evaluate " + t.String())
}

// EvalWords computes the 64-wide parallel-pattern output of a gate of type
// t over one uint64 word per input, for bit-parallel simulation.
func (t GateType) EvalWords(ins []uint64) uint64 {
	switch t {
	case And, Nand:
		out := ^uint64(0)
		for _, v := range ins {
			out &= v
		}
		if t == Nand {
			out = ^out
		}
		return out
	case Or, Nor:
		out := uint64(0)
		for _, v := range ins {
			out |= v
		}
		if t == Nor {
			out = ^out
		}
		return out
	case Xor, Xnor:
		out := uint64(0)
		for _, v := range ins {
			out ^= v
		}
		if t == Xnor {
			out = ^out
		}
		return out
	case Inv:
		return ^ins[0]
	case Buf:
		return ins[0]
	}
	panic("logic: cannot evaluate " + t.String())
}

// MinFanin returns the smallest legal fanin count for t.
func (t GateType) MinFanin() int {
	switch t {
	case And, Or, Xor, Nand, Nor, Xnor:
		return 2
	case Inv, Buf:
		return 1
	case Input:
		return 0
	}
	return -1
}
