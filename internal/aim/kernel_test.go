package aim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"newton/internal/bf16"
)

// TestColumnKernelMatchesMACUnit holds the fused kernel bit-identical
// to AccumulateLatch over random accumulation sequences, including the
// special values (NaNs with and without the quiet bit, infinities,
// signed zeros, subnormals) whose rounding and payload-propagation
// behavior the event core's exactness argument leans on.
func TestColumnKernelMatchesMACUnit(t *testing.T) {
	// 16 lanes runs the register-resident kernel; 8 the generic loop.
	for _, lanes := range []int{16, 8} {
		testColumnKernelMatchesMACUnit(t, lanes)
	}
}

func testColumnKernelMatchesMACUnit(t *testing.T, lanes int) {
	rng := rand.New(rand.NewSource(9))
	specials := []uint16{
		0x0000, 0x8000, // +0, -0
		0x7F80, 0xFF80, // +Inf, -Inf
		0x7FC0, 0x7F81, 0xFFA5, // quiet NaN, signaling-pattern NaNs
		0x0001, 0x8001, 0x007F, // subnormals
		0x3F80, 0xBF80, // +-1
	}
	// Odd trials draw raw bit patterns, a quarter of them specials. Even
	// trials draw same-magnitude values, as real matrices hold, with a
	// rare special: their sums round differently under any adder-tree
	// pairing but TreeReduce's.
	trial := 0
	randNum := func() bf16.Num {
		if trial%2 == 0 {
			if rng.Intn(64) == 0 {
				return bf16.FromBits(specials[rng.Intn(len(specials))])
			}
			return bf16.FromFloat64(2*rng.Float64() - 1)
		}
		if rng.Intn(4) == 0 {
			return bf16.FromBits(specials[rng.Intn(len(specials))])
		}
		return bf16.FromBits(uint16(rng.Uint32()))
	}

	kernel := NewColumnKernel(lanes)
	for ; trial < 500; trial++ {
		unit := NewMACUnit(lanes)
		var mirror bf16.Num
		has := false
		if trial%3 == 1 {
			// Start from a preloaded bias, as WR_BIAS would.
			bias := randNum()
			if err := unit.PreloadLatch(0, bias); err != nil {
				t.Fatal(err)
			}
			mirror, has = bias, true
		}
		steps := 1 + rng.Intn(8)
		for s := 0; s < steps; s++ {
			filter := make(bf16.Vector, lanes)
			input := make(bf16.Vector, lanes)
			for i := 0; i < lanes; i++ {
				filter[i] = randNum()
				input[i] = randNum()
			}
			if err := unit.Accumulate(filter, input, int64(s), 4); err != nil {
				t.Fatal(err)
			}
			widened := make([]float32, lanes)
			WidenInto(widened, input)
			var err error
			mirror, has, err = kernel.Step(filter.Bytes(), input, widened, mirror, has)
			if err != nil {
				t.Fatal(err)
			}

			want, wantHas := unit.LatchState(0)
			if mirror != want || has != wantHas {
				t.Fatalf("lanes %d trial %d step %d: kernel latch %#04x/%v, MACUnit %#04x/%v",
					lanes, trial, s, uint16(mirror), has, uint16(want), wantHas)
			}
		}
	}
}

// TestWidenIntoExact holds WidenInto to Num.Float32 bit equality.
func TestWidenIntoExact(t *testing.T) {
	v := make(bf16.Vector, 256)
	for i := range v {
		v[i] = bf16.FromBits(uint16(i * 257)) // covers all byte patterns incl. NaNs
	}
	dst := make([]float32, len(v))
	WidenInto(dst, v)
	for i, n := range v {
		if got, want := dst[i], n.Float32(); got != want &&
			!(got != got && want != want) { // NaN widens to NaN
			t.Fatalf("lane %d: widened %x to %v, want %v", i, uint16(n), got, want)
		}
	}
}

// kernelCase is one 16-lane column step in FuzzColumnKernel's byte
// layout: 32 filter wire bytes, 32 input bytes (little-endian bf16
// lanes, as the global buffer holds them), two latch bytes and a valid
// flag byte.
func kernelCase(filter, input [16]uint16, latch uint16, has bool) []byte {
	b := make([]byte, 67)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint16(b[2*i:], filter[i])
		binary.LittleEndian.PutUint16(b[32+2*i:], input[i])
	}
	binary.LittleEndian.PutUint16(b[64:], latch)
	if has {
		b[66] = 1
	}
	return b
}

// fill returns 16 lanes of v.
func fill(v uint16) (lanes [16]uint16) {
	for i := range lanes {
		lanes[i] = v
	}
	return lanes
}

// FuzzColumnKernel holds the 16-lane ColumnKernel.Step bit-identical to
// MACUnit.AccumulateLatch for arbitrary filter columns, input
// sub-chunks and latch states. The seeds aim at the cases the
// one-NaN-check-per-step argument must survive: a NaN in every lane
// position, both-NaN lanes with different payloads, Inf×0, +Inf and
// −Inf subtrees that meet inside the adder tree, overflow to Inf,
// subnormals, signed zeros and a NaN latch.
func FuzzColumnKernel(f *testing.F) {
	const (
		one, two = 0x3F80, 0x4000
		qNaN     = 0x7FC0
		sNaN     = 0x7F81 // signaling pattern: the multiply quiets it
		negNaN   = 0xFFC3
		posInf   = 0x7F80
		negInf   = 0xFF80
		negZero  = 0x8000
		huge     = 0x7F7F // max finite bf16
	)
	for lane := 0; lane < 16; lane++ {
		filter, input := fill(one), fill(two)
		filter[lane] = qNaN
		f.Add(kernelCase(filter, input, 0, false))
		filter[lane], input[lane] = sNaN, negNaN // both NaN, payloads differ
		f.Add(kernelCase(filter, input, one, true))
		filter[lane], input[lane] = one, sNaN
		f.Add(kernelCase(filter, input, 0, false))
	}
	// Only TreeReduce's pairing rounds this to 1+2^-7: pairing lane 0
	// with lane 2 would round both ties to even and lose the 2^-8s.
	filter, input := fill(0), fill(one)
	filter[0], filter[2], filter[3] = one, 0x3B80, 0x3B80
	f.Add(kernelCase(filter, input, 0, false))
	// Inf×0 makes the hardware's default NaN.
	filter, input = fill(one), fill(one)
	filter[5], input[5] = posInf, 0
	f.Add(kernelCase(filter, input, 0, false))
	// +Inf and −Inf subtrees meet at the last, a middle and the first level.
	for _, pair := range [][2]int{{0, 15}, {4, 7}, {2, 3}} {
		filter, input = fill(one), fill(one)
		filter[pair[0]], filter[pair[1]] = posInf, negInf
		f.Add(kernelCase(filter, input, 0, false))
	}
	// Overflow to Inf in a product, and in the tree from finite products.
	f.Add(kernelCase(fill(huge), fill(two), 0, false))
	f.Add(kernelCase(fill(huge), fill(one), one, true))
	// Subnormal products, signed zeros, a −0 latch.
	f.Add(kernelCase(fill(0x0001), fill(0x3F00), 0, false))
	f.Add(kernelCase(fill(0x007F), fill(0x8001), negZero, true))
	f.Add(kernelCase(fill(negZero), fill(one), negZero, true))
	// A NaN latch under a finite sum and under a NaN sum.
	f.Add(kernelCase(fill(one), fill(two), negNaN, true))
	filter = fill(one)
	filter[9] = qNaN
	f.Add(kernelCase(filter, fill(two), negNaN, true))
	f.Add(kernelCase(fill(posInf), fill(0), 0x7FC7, true))

	kernel := NewColumnKernel(16)
	unit := NewMACUnit(16)
	widened := make([]float32, 16)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := make([]byte, 67)
		copy(b, data)
		wire := b[:32]
		input := make(bf16.Vector, 16)
		filter := make(bf16.Vector, 16)
		for i := range input {
			filter[i] = bf16.FromBits(binary.LittleEndian.Uint16(wire[2*i:]))
			input[i] = bf16.FromBits(binary.LittleEndian.Uint16(b[32+2*i:]))
		}
		latch := bf16.FromBits(binary.LittleEndian.Uint16(b[64:]))
		has := b[66]&1 == 1

		WidenInto(widened, input)
		got, gotHas, err := kernel.Step(wire, input, widened, latch, has)
		if err != nil {
			t.Fatal(err)
		}
		unit.SetLatchState(0, latch, has)
		if err := unit.AccumulateLatch(0, filter, input, 0, 0); err != nil {
			t.Fatal(err)
		}
		want, wantHas := unit.LatchState(0)
		if got != want || gotHas != wantHas {
			t.Fatalf("filter %04x input %04x latch %#04x/%v: Step %#04x/%v, AccumulateLatch %#04x/%v",
				filter, input, uint16(latch), has, uint16(got), gotHas, uint16(want), wantHas)
		}
	})
}

// TestRoundNonNaN pins the rounding step of the 16-lane kernel: on every
// non-NaN float32 whose high half is any of the 65,536 bf16 patterns
// (low halves chosen to hit ties, carries and truncation), it is
// bf16.Round bit for bit; on every NaN with zero low 16 bits it returns
// a NaN, and Round's own result when the quiet bit is set, as it is on
// every NaN arithmetic produces.
func TestRoundNonNaN(t *testing.T) {
	lows := []uint32{0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF, 0x1234, 0xC000}
	for hi := uint32(0); hi < 1<<16; hi++ {
		for _, lo := range lows {
			bits := hi<<16 | lo
			f := math.Float32frombits(bits)
			got := math.Float32bits(roundNonNaN(f))
			if f != f {
				if lo != 0 {
					continue // cannot reach the kernel's rounding step
				}
				if g := math.Float32frombits(got); g == g {
					t.Fatalf("roundNonNaN(%#08x) = %#08x, not a NaN", bits, got)
				}
				if bits&0x00400000 == 0 {
					continue // signaling pattern: arithmetic never yields it
				}
			}
			if want := math.Float32bits(bf16.Round(f)); got != want {
				t.Fatalf("roundNonNaN(%#08x) = %#08x, Round = %#08x", bits, got, want)
			}
		}
	}
}

// TestArithmeticNaNLowBitsZero pins the platform fact the 16-lane
// kernel's single NaN check rests on: every NaN a float32 multiply or
// add yields from widened bf16 operands has zero low 16 bits and the
// quiet bit set, whether generated (Inf×0, Inf−Inf) or propagated from
// a signaling or quiet operand.
func TestArithmeticNaNLowBitsZero(t *testing.T) {
	var specials []float32
	for _, b := range []uint16{0x7F80, 0xFF80, 0x0000, 0x8000, 0x3F80, 0x7FC0, 0xFFC1, 0x7F81, 0xFF81, 0x7FFF} {
		specials = append(specials, bf16.FromBits(b).Float32())
	}
	for _, x := range specials {
		for _, y := range specials {
			for _, r := range []float32{x * y, x + y, x - y} {
				if r != r && math.Float32bits(r)&0x0040FFFF != 0x00400000 {
					t.Errorf("%#08x op %#08x = NaN %#08x: low 16 bits set or quiet bit clear",
						math.Float32bits(x), math.Float32bits(y), math.Float32bits(r))
				}
			}
		}
	}
}

// TestColumnKernelAllocationFree pins Step at zero allocations per call
// on both its 16-lane fast path and its NaN fallback.
func TestColumnKernelAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kernel := NewColumnKernel(16)
	widened := make([]float32, 16)
	for _, nan := range []bool{false, true} {
		filter, input := randVector(rng, 16), randVector(rng, 16)
		for i := range filter {
			if filter[i].IsNaN() || filter[i].IsInf(0) {
				filter[i] = bf16.One
			}
			if input[i].IsNaN() || input[i].IsInf(0) {
				input[i] = bf16.One
			}
		}
		if nan {
			filter[3], input[3] = bf16.QNaN, bf16.QNaN.Neg()
		}
		wire := filter.Bytes()
		WidenInto(widened, input)
		avg := testing.AllocsPerRun(200, func() {
			if _, _, err := kernel.Step(wire, input, widened, bf16.One, true); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("Step (NaN lane %v) allocates %.1f times per call, want 0", nan, avg)
		}
	}
}
