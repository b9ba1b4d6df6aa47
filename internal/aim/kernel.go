package aim

import (
	"encoding/binary"
	"math"

	"newton/internal/bf16"
)

// This file is the host event core's fused compute kernel: one bank's
// COMP step — filter decode, lane multiplies, adder-tree reduction,
// latch accumulate — as a single call over wire-format filter bytes and
// a pre-widened input sub-chunk. It performs exactly the arithmetic
// AccumulateLatch performs (the differential tests and FuzzColumnKernel
// in kernel_test.go hold them bit-identical), but skips the
// intermediate bf16.Vector materializations Issue's COMP path goes
// through: DecodeInto's Num round-trip for the filter and the per-lane
// Num→float32 widening of the input on every column access.
//
// The paper's configuration (16 lanes, 256-bit columns) runs a
// register-resident kernel, step16: the 32 wire bytes, the 16 rounded
// products and the 15-add tree in TreeReduce's pairing order all live
// in local variables, and rounding is roundNonNaN, Round's non-NaN
// branch without its per-call NaN test. Other lane counts, and every
// step whose sum is NaN, run the generic loop below.
//
// One subtlety keeps this from being a plain inline rewrite: when BOTH
// operands of a float multiply (or of the latch-accumulate add) are
// NaN, the result's payload is whichever operand the compiled
// instruction's first source register holds — and Go normalizes
// commutative operands per call site, so two textually identical
// expressions in different functions can propagate different payloads
// (observed in practice). Single-NaN and generated-NaN cases are
// order-independent. The generic loop therefore detects the both-NaN
// cases per step and reroutes that step through a scratch MACUnit, i.e.
// through AccumulateLatch's own compiled code, which is exact by
// construction.
//
// step16 needs only one NaN check per step, on the final sum, because
// every NaN that can reach its rounding step has zero low 16 bits:
// multiply operands are widened bf16 values (low 16 bits zero), a
// propagated NaN keeps its operand's payload, the default NaN the
// hardware generates for Inf×0 or Inf−Inf is 0x?FC00000 on x86 and ARM,
// and tree operands are themselves rounded outputs. Adding the rounding
// increment (at most 0x8000) to such a NaN cannot carry out of the low
// 16 bits, so roundNonNaN returns a NaN for it, and IEEE addition
// propagates that NaN through every later tree level to the sum. So a
// non-NaN sum proves that no lane produced a NaN, hence that no lane
// took the order-sensitive both-NaN case; and on non-NaN values
// roundNonNaN is Round bit for bit. The latch add that follows is
// AccumulateLatch's verbatim, and with a non-NaN sum it is at worst a
// single-NaN (latch) add, which is order-independent.

// WidenInto widens a bf16 vector into float32 lanes, the exact value
// MulFloat would see for each element. The event core pre-widens each
// input chunk once and reuses it across every tile of the run instead
// of converting per column access.
func WidenInto(dst []float32, v bf16.Vector) {
	for i, n := range v {
		dst[i] = n.Float32()
	}
}

// ColumnKernel is the reusable state for fused column steps: the lane
// product scratch plus the NaN-fallback MACUnit. One kernel per
// channel suffices; Step is not safe for concurrent use.
type ColumnKernel struct {
	scratch  []float32
	fbUnit   *MACUnit
	fbFilter bf16.Vector
}

// NewColumnKernel returns a kernel for the given lane count.
func NewColumnKernel(lanes int) *ColumnKernel {
	return &ColumnKernel{
		scratch:  make([]float32, lanes),
		fbUnit:   NewMACUnit(lanes),
		fbFilter: make(bf16.Vector, lanes),
	}
}

// Step performs one bank's compute step on a mirrored latch: multiply
// the wire-format filter column (little-endian bf16, one lane per 2
// bytes) by the input sub-chunk, reduce through the adder tree, and
// accumulate into (latch, has), returning the updated state. input and
// widened are two views of the same sub-chunk — the original Nums and
// their Float32 widenings — so the fast paths multiply floats while
// the NaN fallback hands AccumulateLatch the exact operands. wire must
// hold 2*lanes bytes and input/widened lanes elements.
func (k *ColumnKernel) Step(wire []byte, input bf16.Vector, widened []float32, latch bf16.Num, has bool) (bf16.Num, bool, error) {
	if len(widened) == 16 {
		if sum := step16(wire, widened); sum == sum {
			if !has {
				return bf16.FromFloat32(sum), true, nil
			}
			return bf16.FromFloat32(latch.Float32() + sum), true, nil
		}
	}
	return k.generic(wire, input, widened, latch, has)
}

// step16 is the 16-lane column kernel: it returns the adder-tree sum of
// the rounded lane products, which equals AccumulateLatch's
// treeReduceFloats result whenever it is not NaN (see the file comment).
// Each 8-byte load holds four little-endian lanes; a lane's widened
// float32 is its 16 bits shifted into the high half.
func step16(wire []byte, in []float32) float32 {
	w := wire[:32]
	in = in[:16]
	w0 := binary.LittleEndian.Uint64(w[0:])
	w1 := binary.LittleEndian.Uint64(w[8:])
	w2 := binary.LittleEndian.Uint64(w[16:])
	w3 := binary.LittleEndian.Uint64(w[24:])

	p0 := mulLane(uint32(w0)<<16, in[0])
	p1 := mulLane(uint32(w0)&0xFFFF0000, in[1])
	p2 := mulLane(uint32(w0>>32)<<16, in[2])
	p3 := mulLane(uint32(w0>>32)&0xFFFF0000, in[3])
	p4 := mulLane(uint32(w1)<<16, in[4])
	p5 := mulLane(uint32(w1)&0xFFFF0000, in[5])
	p6 := mulLane(uint32(w1>>32)<<16, in[6])
	p7 := mulLane(uint32(w1>>32)&0xFFFF0000, in[7])
	p8 := mulLane(uint32(w2)<<16, in[8])
	p9 := mulLane(uint32(w2)&0xFFFF0000, in[9])
	p10 := mulLane(uint32(w2>>32)<<16, in[10])
	p11 := mulLane(uint32(w2>>32)&0xFFFF0000, in[11])
	p12 := mulLane(uint32(w3)<<16, in[12])
	p13 := mulLane(uint32(w3)&0xFFFF0000, in[13])
	p14 := mulLane(uint32(w3>>32)<<16, in[14])
	p15 := mulLane(uint32(w3>>32)&0xFFFF0000, in[15])

	// TreeReduce's pairing: adjacent pairs, level by level.
	s0 := roundNonNaN(p0 + p1)
	s1 := roundNonNaN(p2 + p3)
	s2 := roundNonNaN(p4 + p5)
	s3 := roundNonNaN(p6 + p7)
	s4 := roundNonNaN(p8 + p9)
	s5 := roundNonNaN(p10 + p11)
	s6 := roundNonNaN(p12 + p13)
	s7 := roundNonNaN(p14 + p15)
	t0 := roundNonNaN(s0 + s1)
	t1 := roundNonNaN(s2 + s3)
	t2 := roundNonNaN(s4 + s5)
	t3 := roundNonNaN(s6 + s7)
	u0 := roundNonNaN(t0 + t1)
	u1 := roundNonNaN(t2 + t3)
	return roundNonNaN(u0 + u1)
}

// mulLane multiplies one widened filter lane, given as float32 bits, by
// its input lane and rounds the product to bf16 precision.
func mulLane(fbits uint32, in float32) float32 {
	return roundNonNaN(math.Float32frombits(fbits) * in)
}

// roundNonNaN is bf16.Round's non-NaN branch: round to nearest even at
// bit 16, then clear the 16 bits a bf16 cannot hold. It has no NaN
// branch. For a NaN with zero low 16 bits, the only NaNs step16 can
// produce, the increment cannot carry into the mantissa's high bits, so
// the result is still a NaN (TestRoundNonNaN pins both facts).
func roundNonNaN(f float32) float32 {
	b := math.Float32bits(f)
	b += 0x7FFF + (b>>16)&1
	return math.Float32frombits(b &^ 0xFFFF)
}

// generic is Step for any lane count, and the exact path for 16-lane
// steps whose sum is NaN: it finds the both-NaN lanes step16 cannot
// order correctly and reroutes such steps through the fallback.
//
// Bit-exactness vs AccumulateLatch, lane by lane: decoding a wire lane
// to float32 directly (uint16 << 16, Float32frombits) equals
// DecodeInto-then-Float32, both exact; bf16.Round(f*in) is then
// MulFloat of the same operands; treeReduceFloats is shared code; the
// accumulate tail is AccumulateLatch's verbatim; and the operand-order
// sensitive both-NaN cases never take this path at all.
func (k *ColumnKernel) generic(wire []byte, input bf16.Vector, widened []float32, latch bf16.Num, has bool) (bf16.Num, bool, error) {
	bothNaN := false
	for i, in := range widened {
		f := math.Float32frombits(uint32(binary.LittleEndian.Uint16(wire[2*i:])) << 16)
		if f != f && in != in {
			bothNaN = true
			break
		}
		k.scratch[i] = bf16.Round(f * in)
	}
	if !bothNaN {
		sum := treeReduceFloats(k.scratch[:len(widened)])
		if !has {
			return bf16.FromFloat32(sum), true, nil
		}
		if !(latch.IsNaN() && sum != sum) {
			return bf16.FromFloat32(latch.Float32() + sum), true, nil
		}
		// latch-NaN + sum-NaN: the final add is order-sensitive too.
	}
	return k.fallback(wire, input, latch, has)
}

// fallback reroutes one step through AccumulateLatch on the scratch
// unit, so the operand-order-sensitive NaN payload propagation is the
// oracle's own.
func (k *ColumnKernel) fallback(wire []byte, input bf16.Vector, latch bf16.Num, has bool) (bf16.Num, bool, error) {
	bf16.DecodeInto(k.fbFilter, wire)
	k.fbUnit.SetLatchState(0, latch, has)
	if err := k.fbUnit.AccumulateLatch(0, k.fbFilter, input, 0, 0); err != nil {
		return latch, has, err
	}
	v, h := k.fbUnit.LatchState(0)
	return v, h, nil
}
