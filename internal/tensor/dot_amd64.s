#include "textflag.h"

// func dotVec(a, b *float32, n int) float32
//
// SSE 4-lane dot product with four independent accumulator registers
// (16 floats per main-loop iteration). SSE2 is part of the amd64
// baseline, so no CPUID dispatch is needed. NaN and ±Inf propagate
// through MULPS/ADDPS exactly as in scalar IEEE arithmetic, which the
// fault-injection framework depends on.
TEXT ·dotVec(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  CX, BX
	SHRQ  $4, BX
	JZ    tail4

loop16:
	MOVUPS (SI), X4
	MOVUPS (DI), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	MOVUPS 16(SI), X6
	MOVUPS 16(DI), X7
	MULPS  X7, X6
	ADDPS  X6, X1
	MOVUPS 32(SI), X4
	MOVUPS 32(DI), X5
	MULPS  X5, X4
	ADDPS  X4, X2
	MOVUPS 48(SI), X6
	MOVUPS 48(DI), X7
	MULPS  X7, X6
	ADDPS  X6, X3
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    loop16

tail4:
	MOVQ CX, BX
	ANDQ $15, BX
	MOVQ BX, DX
	SHRQ $2, DX
	JZ   tail1

loop4:
	MOVUPS (SI), X4
	MOVUPS (DI), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   DX
	JNZ    loop4

tail1:
	ANDQ $3, BX
	JZ   reduce

loop1:
	MOVSS (SI), X4
	MOVSS (DI), X5
	MULSS X5, X4
	ADDSS X4, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  BX
	JNZ   loop1

reduce:
	ADDPS  X1, X0
	ADDPS  X3, X2
	ADDPS  X2, X0
	MOVAPS X0, X1
	SHUFPS $0xEE, X1, X1
	ADDPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X0
	MOVSS  X0, ret+24(FP)
	RET

// func dotVecFMA(a, b *float32, n int) float32
//
// AVX2/FMA 8-lane dot product with two independent Y-register accumulators
// (16 floats per main-loop iteration). Only reached when cpu_amd64.go has
// confirmed AVX2+FMA3. Fused multiply-add rounds once per lane-step, so the
// FMA tier is NOT bit-identical to the SSE tier — the tier is fixed per
// process. This body is the one-element definition of the tier's op order
// and has no engine caller: the column sweeps (matMulT1Vec, matMulT4Vec,
// matMulT1x4Vec512) inline it per output element and are tested bitwise
// against it. b is loaded into a register, a rides as the FMA memory
// operand, chunk 0 accumulates into Y0/X0 and chunk 1 into Y1, tails drop
// into Y0/X0.
TEXT ·dotVecFMA(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     fmatail8

fmaloop16:
	VMOVUPS     (DI), Y2
	VFMADD231PS (SI), Y2, Y0
	VMOVUPS     32(DI), Y3
	VFMADD231PS 32(SI), Y3, Y1
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        BX
	JNZ         fmaloop16

fmatail8:
	MOVQ CX, BX
	ANDQ $15, BX
	CMPQ BX, $8
	JLT  fmareduce
	VMOVUPS     (DI), Y2
	VFMADD231PS (SI), Y2, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, BX

fmareduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VZEROUPPER
	TESTQ        BX, BX
	JZ           fmahsum

fmaloop1:
	VMOVSS      (DI), X2
	VFMADD231SS (SI), X2, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        BX
	JNZ         fmaloop1

fmahsum:
	MOVAPS X0, X1
	SHUFPS $0xEE, X1, X1
	ADDPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X0
	MOVSS  X0, ret+24(FP)
	RET

// func quantizeF16Vec(p *float32, n int)
// In-place float32 → binary16 → float32 round trip over n floats (n a
// positive multiple of 8) via F16C: VCVTPS2PH with imm8=0 forces
// round-to-nearest-even independent of MXCSR, and VCVTPH2PS widens back
// exactly, so each lane matches numerics.RoundF16 bit for bit (NaNs are
// quieted with the same truncated payload the software converter keeps).
TEXT ·quantizeF16Vec(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   qztail8

qzloop16:
	VMOVUPS   (SI), Y0
	VMOVUPS   32(SI), Y1
	VCVTPS2PH $0, Y0, X2
	VCVTPS2PH $0, Y1, X3
	VCVTPH2PS X2, Y0
	VCVTPH2PS X3, Y1
	VMOVUPS   Y0, (SI)
	VMOVUPS   Y1, 32(SI)
	ADDQ      $64, SI
	DECQ      BX
	JNZ       qzloop16

qztail8:
	TESTQ $8, CX
	JZ    qzdone
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, X2
	VCVTPH2PS X2, Y0
	VMOVUPS   Y0, (SI)

qzdone:
	VZEROUPPER
	RET

// DSFIRST opens accumulator acc with the first four lanes of the position at
// off(DI): acc = q·k + 0. dotVec's first add is 0 + q·k; the two differ in
// nothing (a −0 product becomes +0 either way, a NaN product keeps its
// payload). DSMORE adds the next four lanes, acc += q·k. Both multiply with
// q as the destination operand, as dotVec does, so when q and k hold NaNs in
// the same lane it is q's payload that survives. MOVUPS because a slab row is
// only 4-byte aligned. Clobber X4, X5.
#define DSFIRST(off, q, acc) \
	MOVUPS off(DI), X4 \
	MOVAPS q, acc      \
	MULPS  X4, acc     \
	ADDPS  X12, acc

#define DSMORE(off, q, acc) \
	MOVUPS off(DI), X4 \
	MOVAPS q, X5       \
	MULPS  X4, X5      \
	ADDPS  X5, acc

// DSPOS16 is one position at d = 16, dotVec's (c0+c1)+(c2+c3): X7 takes the
// second pair of chunks.
#define DSPOS16(o0, o1, o2, o3, acc) \
	DSFIRST(o0, X8, acc) \
	DSMORE(o1, X9, acc)  \
	DSFIRST(o2, X10, X7) \
	DSMORE(o3, X11, X7)  \
	ADDPS X7, acc

// DSSTORE4 reduces the accumulators X0–X3 of four consecutive positions
// transposed — dotVec's (l0+l2)+(l1+l3) for all four at once, each add with
// dotVec's first operand first — scales them and stores four scores.
#define DSSTORE4 \
	MOVAPS  X0, X4        \
	MOVLHPS X1, X4        \ // a0 a1 b0 b1
	MOVHLPS X0, X1        \ // a2 a3 b2 b3
	ADDPS   X1, X4        \
	MOVAPS  X2, X5        \
	MOVLHPS X3, X5        \ // c0 c1 d0 d1
	MOVHLPS X2, X3        \ // c2 c3 d2 d3
	ADDPS   X3, X5        \
	MOVAPS  X4, X6        \
	SHUFPS  $0x88, X5, X4 \ // l0+l2 of a b c d
	SHUFPS  $0xDD, X5, X6 \ // l1+l3 of a b c d
	ADDPS   X6, X4        \
	MULPS   X13, X4       \
	MOVUPS  X4, (R8)      \
	ADDQ    $16, R8       \
	SUBQ    $4, R10

// func dotStrideVec(dst, q, k *float32, d, limit int, scale float32)
// dst[j] = dotVec(q, k[j·d:], d) · scale for j in [0, limit), value for value
// (NaN payloads and zero signs included). For the head dimensions 4, 8, 12
// and 16 q stays in X8–X11 for the whole call and four positions run per
// iteration, one accumulator each: up to d = 12 dotVec sums every chunk into
// its accumulator 0 and its reduction adds three zero registers, which change
// nothing; at d = 16 it puts one chunk in each of four accumulators and
// reduces (c0+c1)+(c2+c3), kept here with X7 as the second pair (only the
// first chunk of a pair needs the + 0: a sum that starts from one is never
// −0). The last limit mod 4 positions and every other d take dsrow, which is
// the dotVec body instruction for instruction. k rows are contiguous, so DI
// walks forward d floats per position.
TEXT ·dotStrideVec(SB), NOSPLIT, $0-44
	MOVQ   dst+0(FP), R8
	MOVQ   q+8(FP), R11
	MOVQ   k+16(FP), DI
	MOVQ   d+24(FP), R9
	MOVQ   limit+32(FP), R10
	MOVSS  scale+40(FP), X13
	SHUFPS $0, X13, X13
	XORPS  X12, X12
	CMPQ   R10, $4
	JLT    dstail
	CMPQ   R9, $12
	JEQ    ds12
	CMPQ   R9, $8
	JEQ    ds8
	CMPQ   R9, $16
	JEQ    ds16
	CMPQ   R9, $4
	JNE    dstail
	MOVUPS (R11), X8

ds4loop:
	DSFIRST(0, X8, X0)
	DSFIRST(16, X8, X1)
	DSFIRST(32, X8, X2)
	DSFIRST(48, X8, X3)
	ADDQ $64, DI
	DSSTORE4
	CMPQ R10, $4
	JGE  ds4loop
	JMP  dstail

ds8:
	MOVUPS (R11), X8
	MOVUPS 16(R11), X9

ds8loop:
	DSFIRST(0, X8, X0)
	DSMORE(16, X9, X0)
	DSFIRST(32, X8, X1)
	DSMORE(48, X9, X1)
	DSFIRST(64, X8, X2)
	DSMORE(80, X9, X2)
	DSFIRST(96, X8, X3)
	DSMORE(112, X9, X3)
	ADDQ $128, DI
	DSSTORE4
	CMPQ R10, $4
	JGE  ds8loop
	JMP  dstail

ds12:
	MOVUPS (R11), X8
	MOVUPS 16(R11), X9
	MOVUPS 32(R11), X10

ds12loop:
	DSFIRST(0, X8, X0)
	DSMORE(16, X9, X0)
	DSMORE(32, X10, X0)
	DSFIRST(48, X8, X1)
	DSMORE(64, X9, X1)
	DSMORE(80, X10, X1)
	DSFIRST(96, X8, X2)
	DSMORE(112, X9, X2)
	DSMORE(128, X10, X2)
	DSFIRST(144, X8, X3)
	DSMORE(160, X9, X3)
	DSMORE(176, X10, X3)
	ADDQ $192, DI
	DSSTORE4
	CMPQ R10, $4
	JGE  ds12loop
	JMP  dstail

ds16:
	MOVUPS (R11), X8
	MOVUPS 16(R11), X9
	MOVUPS 32(R11), X10
	MOVUPS 48(R11), X11

ds16loop:
	DSPOS16(0, 16, 32, 48, X0)
	DSPOS16(64, 80, 96, 112, X1)
	DSPOS16(128, 144, 160, 176, X2)
	DSPOS16(192, 208, 224, 240, X3)
	ADDQ $256, DI
	DSSTORE4
	CMPQ R10, $4
	JGE  ds16loop

dstail:
	TESTQ R10, R10
	JZ    dsdone

dsrow:
	MOVQ  R11, SI
	MOVQ  R9, CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  CX, BX
	SHRQ  $4, BX
	JZ    dstail4

dsloop16:
	MOVUPS (SI), X4
	MOVUPS (DI), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	MOVUPS 16(SI), X6
	MOVUPS 16(DI), X7
	MULPS  X7, X6
	ADDPS  X6, X1
	MOVUPS 32(SI), X4
	MOVUPS 32(DI), X5
	MULPS  X5, X4
	ADDPS  X4, X2
	MOVUPS 48(SI), X6
	MOVUPS 48(DI), X7
	MULPS  X7, X6
	ADDPS  X6, X3
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    dsloop16

dstail4:
	MOVQ CX, BX
	ANDQ $15, BX
	MOVQ BX, DX
	SHRQ $2, DX
	JZ   dstail1

dsloop4:
	MOVUPS (SI), X4
	MOVUPS (DI), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   DX
	JNZ    dsloop4

dstail1:
	ANDQ $3, BX
	JZ   dsreduce

dsloop1:
	MOVSS (SI), X4
	MOVSS (DI), X5
	MULSS X5, X4
	ADDSS X4, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  BX
	JNZ   dsloop1

dsreduce:
	ADDPS  X1, X0
	ADDPS  X3, X2
	ADDPS  X2, X0
	MOVAPS X0, X1
	SHUFPS $0xEE, X1, X1
	ADDPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X0
	MULSS  X13, X0
	MOVSS  X0, (R8)
	ADDQ   $4, R8
	DECQ   R10
	JNZ    dsrow

dsdone:
	RET

// ASWEIGHT reads the next weight and jumps to skip when it is an exact zero
// of either sign (bit test on the sign-stripped word — a NaN weight is NOT
// skipped, matching the Go guard `if w[j] == 0`), else broadcasts it into X0.
// ASCOL is four columns of one position: acc += v·w, one MULPS with v as the
// destination operand then one ADDPS with acc as the destination, never fused
// — per element exactly the scalar dst[i] += w*v[i].
#define ASWEIGHT(skip) \
	MOVL   (R8), AX        \
	ADDQ   $4, R8          \
	TESTL  $0x7FFFFFFF, AX \
	JZ     skip            \
	MOVSS  -4(R8), X0      \
	SHUFPS $0, X0, X0

#define ASCOL(off, acc) \
	MOVUPS off(DI), X1 \
	MULPS  X0, X1      \
	ADDPS  X1, acc

// ASROWS starts a column block's walk over the positions, ASNEXT steps it to
// the next position (loop) and ASDONE moves on by n columns.
#define ASROWS \
	MOVQ R13, DI \
	MOVQ SI, R8  \
	MOVQ R10, CX

#define ASNEXT(loop) \
	ADDQ R12, DI \
	DECQ CX      \
	JNZ  loop

#define ASDONE(n) \
	ADDQ $(4*n), R11 \
	ADDQ $(4*n), R13 \
	SUBQ $n, R9      \
	JMP  ascols

// func axpyStrideVec(dst, v, w *float32, d, limit int)
// dst += w[j]·v[j·d:j·d+d] for j in [0, limit), skipping exact-zero weights.
// An output element depends on no other, so the d columns go in blocks of 16,
// then 12, 8 or 4, then single ones, and a block holds its slice of dst in
// X4–X7 across all positions — loaded once, stored once, with no store for
// the next position's load to wait on. Each element still sees the same
// multiply-then-add per position in the same j order as the scalar loop, so
// the row is bit-identical to it, NaN/±Inf propagation included.
TEXT ·axpyStrideVec(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), R11
	MOVQ  v+8(FP), R13
	MOVQ  w+16(FP), SI
	MOVQ  d+24(FP), R9
	MOVQ  limit+32(FP), R10
	MOVQ  R9, R12
	SHLQ  $2, R12
	TESTQ R10, R10
	JZ    asdone

ascols:
	CMPQ  R9, $16
	JGE   as16
	CMPQ  R9, $12
	JGE   as12
	CMPQ  R9, $8
	JGE   as8
	CMPQ  R9, $4
	JGE   as4
	TESTQ R9, R9
	JNZ   as1

asdone:
	RET

as16:
	MOVUPS (R11), X4
	MOVUPS 16(R11), X5
	MOVUPS 32(R11), X6
	MOVUPS 48(R11), X7
	ASROWS

as16row:
	ASWEIGHT(as16skip)
	ASCOL(0, X4)
	ASCOL(16, X5)
	ASCOL(32, X6)
	ASCOL(48, X7)

as16skip:
	ASNEXT(as16row)
	MOVUPS X4, (R11)
	MOVUPS X5, 16(R11)
	MOVUPS X6, 32(R11)
	MOVUPS X7, 48(R11)
	ASDONE(16)

as12:
	MOVUPS (R11), X4
	MOVUPS 16(R11), X5
	MOVUPS 32(R11), X6
	ASROWS

as12row:
	ASWEIGHT(as12skip)
	ASCOL(0, X4)
	ASCOL(16, X5)
	ASCOL(32, X6)

as12skip:
	ASNEXT(as12row)
	MOVUPS X4, (R11)
	MOVUPS X5, 16(R11)
	MOVUPS X6, 32(R11)
	ASDONE(12)

as8:
	MOVUPS (R11), X4
	MOVUPS 16(R11), X5
	ASROWS

as8row:
	ASWEIGHT(as8skip)
	ASCOL(0, X4)
	ASCOL(16, X5)

as8skip:
	ASNEXT(as8row)
	MOVUPS X4, (R11)
	MOVUPS X5, 16(R11)
	ASDONE(8)

as4:
	MOVUPS (R11), X4
	ASROWS

as4row:
	ASWEIGHT(as4skip)
	ASCOL(0, X4)

as4skip:
	ASNEXT(as4row)
	MOVUPS X4, (R11)
	ASDONE(4)

as1:
	MOVSS (R11), X4
	ASROWS

as1row:
	ASWEIGHT(as1skip)
	MOVSS (DI), X1
	MULSS X0, X1
	ADDSS X1, X4

as1skip:
	ASNEXT(as1row)
	MOVSS X4, (R11)
	ASDONE(1)

// func matMulT1Vec(out, a, b *float32, k, cols int)
// out[j] = dotVecFMA(a, b[j·k:], k) for j in [0, cols): the single-row
// MatMulT column sweep with the per-column call hoisted into the kernel.
// The inner body is dotVecFMA verbatim (same accumulator split, same
// reduction), so every output element is bit-identical to the one-element
// kernel. b rows are contiguous, so DI walks forward naturally.
TEXT ·matMulT1Vec(SB), NOSPLIT, $0-40
	MOVQ  out+0(FP), R8
	MOVQ  a+8(FP), R11
	MOVQ  b+16(FP), DI
	MOVQ  k+24(FP), CX
	MOVQ  cols+32(FP), R10
	TESTQ R10, R10
	JZ    m1done

m1col:
	MOVQ   R11, SI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     m1tail8

m1loop16:
	VMOVUPS     (DI), Y2
	VFMADD231PS (SI), Y2, Y0
	VMOVUPS     32(DI), Y3
	VFMADD231PS 32(SI), Y3, Y1
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        BX
	JNZ         m1loop16

m1tail8:
	MOVQ CX, BX
	ANDQ $15, BX
	CMPQ BX, $8
	JLT  m1reduce
	VMOVUPS     (DI), Y2
	VFMADD231PS (SI), Y2, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, BX

m1reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VZEROUPPER
	TESTQ        BX, BX
	JZ           m1hsum

m1loop1:
	VMOVSS      (DI), X2
	VFMADD231SS (SI), X2, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        BX
	JNZ         m1loop1

m1hsum:
	MOVAPS X0, X1
	SHUFPS $0xEE, X1, X1
	ADDPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X0
	MOVSS  X0, (R8)
	ADDQ   $4, R8
	DECQ   R10
	JNZ    m1col

m1done:
	RET

// Q4FMA is one column's FMA of a chunk, dotVecFMA's operand roles: b loaded
// into the register, a the memory operand, so when both are NaN in one lane
// the same payload survives. The width is the suffix of the registers: Z for
// both of dotVecFMA's 8-lane chunks at once, Y for its k mod 16 ≥ 8 tail,
// X (with SS) for a single lane.
#define Q4FMA(mov, fma, row, breg, acc) \
	mov (row), breg \
	fma (SI), breg, acc

// func matMulT1x4Vec512(out, a, b *float32, k, cols int)
// matMulT1Vec four columns per pass over a (cols a positive multiple of 4):
// out[j] = dotVecFMA(a, b[j·k:], k), bit for bit. Column c keeps one ZMM
// accumulator Zc: lanes 0–7 are dotVecFMA's accumulator 0 (chunks 0, 2, 4,
// …), lanes 8–15 its accumulator 1 (chunks 1, 3, …), so one 64-byte FMA per
// column does what dotVecFMA's two 32-byte ones do. Accumulator 1 leaves
// for Y8–Y11 (VEXTRACTF64X4, AVX512F) before the 8-lane tail, whose VEX FMA
// zeroes bits 256–511; then acc0 + acc1, acc0 first, and the 128-bit fold.
// The accumulators stay in Z0–Z15, so that reduction is VEX-encoded and
// VZEROUPPER clears it. The scalar tail goes into lane 0 as in dotVecFMA,
// and the four columns are reduced together, (l0+l2)+(l1+l3) with the
// first operand first (DSSTORE4's shuffle), into one 16-byte store. hasAVX512
// only.
TEXT ·matMulT1x4Vec512(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), R8
	MOVQ a+8(FP), R11
	MOVQ b+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ cols+32(FP), R14
	MOVQ CX, R12
	SHLQ $2, R12
	SHRQ $2, R14

q4col:
	MOVQ   R11, SI
	LEAQ   (DI)(R12*1), R9
	LEAQ   (R9)(R12*1), R10
	LEAQ   (R10)(R12*1), R13
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     q4tail8

q4loop16:
	Q4FMA(VMOVUPS, VFMADD231PS, DI, Z4, Z0)
	Q4FMA(VMOVUPS, VFMADD231PS, R9, Z5, Z1)
	Q4FMA(VMOVUPS, VFMADD231PS, R10, Z6, Z2)
	Q4FMA(VMOVUPS, VFMADD231PS, R13, Z7, Z3)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R13
	DECQ BX
	JNZ  q4loop16

q4tail8:
	VEXTRACTF64X4 $1, Z0, Y8
	VEXTRACTF64X4 $1, Z1, Y9
	VEXTRACTF64X4 $1, Z2, Y10
	VEXTRACTF64X4 $1, Z3, Y11
	MOVQ          CX, BX
	ANDQ          $15, BX
	CMPQ          BX, $8
	JLT           q4reduce
	Q4FMA(VMOVUPS, VFMADD231PS, DI, Y4, Y0)
	Q4FMA(VMOVUPS, VFMADD231PS, R9, Y5, Y1)
	Q4FMA(VMOVUPS, VFMADD231PS, R10, Y6, Y2)
	Q4FMA(VMOVUPS, VFMADD231PS, R13, Y7, Y3)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R13
	SUBQ $8, BX

q4reduce:
	VADDPS       Y8, Y0, Y0
	VADDPS       Y9, Y1, Y1
	VADDPS       Y10, Y2, Y2
	VADDPS       Y11, Y3, Y3
	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VEXTRACTF128 $1, Y1, X9
	VADDPS       X9, X1, X1
	VEXTRACTF128 $1, Y2, X10
	VADDPS       X10, X2, X2
	VEXTRACTF128 $1, Y3, X11
	VADDPS       X11, X3, X3
	VZEROUPPER
	TESTQ        BX, BX
	JZ           q4hsum

q4loop1:
	Q4FMA(VMOVSS, VFMADD231SS, DI, X4, X0)
	Q4FMA(VMOVSS, VFMADD231SS, R9, X5, X1)
	Q4FMA(VMOVSS, VFMADD231SS, R10, X6, X2)
	Q4FMA(VMOVSS, VFMADD231SS, R13, X7, X3)
	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R13
	DECQ BX
	JNZ  q4loop1

q4hsum:
	MOVAPS  X0, X4
	MOVLHPS X1, X4        // a0 a1 b0 b1
	MOVHLPS X0, X1        // a2 a3 b2 b3
	ADDPS   X1, X4
	MOVAPS  X2, X5
	MOVLHPS X3, X5        // c0 c1 d0 d1
	MOVHLPS X2, X3        // c2 c3 d2 d3
	ADDPS   X3, X5
	MOVAPS  X4, X6
	SHUFPS  $0x88, X5, X4 // l0+l2 of a b c d
	SHUFPS  $0xDD, X5, X6 // l1+l3 of a b c d
	ADDPS   X6, X4
	MOVUPS  X4, (R8)
	ADDQ    $16, R8
	MOVQ    R13, DI
	DECQ    R14
	JNZ     q4col
	RET

// func matMulT4Vec(out *float32, ldo int, a *float32, lda int, b *float32, k, cols int)
// Four MatMulT output rows over all cols in one call: out[r·ldo+j] =
// dotVecFMA(a[r·lda:], b[j·k:], k) for r in 0..3, j in [0, cols). Per
// row the inner body is dotVecFMA's (two accumulators per row, shared b
// loads, same reduction and horizontal-sum order), so every element is
// bit-identical to the one-element kernel; the column loop lives in the
// kernel because per-column call, argument, and bounds overhead dominates
// at the zoo's small widths.
TEXT ·matMulT4Vec(SB), NOSPLIT, $0-56
	MOVQ  out+0(FP), DX
	MOVQ  ldo+8(FP), R12
	SHLQ  $2, R12
	MOVQ  a+16(FP), R8
	MOVQ  lda+24(FP), AX
	SHLQ  $2, AX
	LEAQ  (R8)(AX*1), R9
	LEAQ  (R9)(AX*1), R10
	LEAQ  (R10)(AX*1), R11
	MOVQ  b+32(FP), DI
	MOVQ  k+40(FP), CX
	MOVQ  cols+48(FP), R14
	MOVQ  CX, R13
	SHLQ  $2, R13
	TESTQ R14, R14
	JZ    m4done

m4col:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     m4tail8

m4loop16:
	VMOVUPS     (DI), Y8
	VMOVUPS     32(DI), Y9
	VFMADD231PS (R8), Y8, Y0
	VFMADD231PS 32(R8), Y9, Y1
	VFMADD231PS (R9), Y8, Y2
	VFMADD231PS 32(R9), Y9, Y3
	VFMADD231PS (R10), Y8, Y4
	VFMADD231PS 32(R10), Y9, Y5
	VFMADD231PS (R11), Y8, Y6
	VFMADD231PS 32(R11), Y9, Y7
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	ADDQ        $64, DI
	DECQ        BX
	JNZ         m4loop16

m4tail8:
	MOVQ CX, BX
	ANDQ $15, BX
	CMPQ BX, $8
	JLT  m4reduce
	VMOVUPS     (DI), Y8
	VFMADD231PS (R8), Y8, Y0
	VFMADD231PS (R9), Y8, Y2
	VFMADD231PS (R10), Y8, Y4
	VFMADD231PS (R11), Y8, Y6
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	ADDQ        $32, DI
	SUBQ        $8, BX

m4reduce:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VEXTRACTF128 $1, Y2, X3
	VADDPS       X3, X2, X2
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4
	VEXTRACTF128 $1, Y6, X7
	VADDPS       X7, X6, X6
	VZEROUPPER
	TESTQ        BX, BX
	JZ           m4hsum

m4loop1:
	VMOVSS      (DI), X8
	VFMADD231SS (R8), X8, X0
	VFMADD231SS (R9), X8, X2
	VFMADD231SS (R10), X8, X4
	VFMADD231SS (R11), X8, X6
	ADDQ        $4, R8
	ADDQ        $4, R9
	ADDQ        $4, R10
	ADDQ        $4, R11
	ADDQ        $4, DI
	DECQ        BX
	JNZ         m4loop1

m4hsum:
	MOVAPS X0, X1
	SHUFPS $0xEE, X1, X1
	ADDPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X0
	MOVAPS X2, X3
	SHUFPS $0xEE, X3, X3
	ADDPS  X3, X2
	MOVAPS X2, X3
	SHUFPS $0x55, X3, X3
	ADDSS  X3, X2
	MOVAPS X4, X5
	SHUFPS $0xEE, X5, X5
	ADDPS  X5, X4
	MOVAPS X4, X5
	SHUFPS $0x55, X5, X5
	ADDSS  X5, X4
	MOVAPS X6, X7
	SHUFPS $0xEE, X7, X7
	ADDPS  X7, X6
	MOVAPS X6, X7
	SHUFPS $0x55, X7, X7
	ADDSS  X7, X6
	MOVSS  X0, (DX)
	LEAQ   (DX)(R12*1), AX
	MOVSS  X2, (AX)
	ADDQ   R12, AX
	MOVSS  X4, (AX)
	ADDQ   R12, AX
	MOVSS  X6, (AX)
	SUBQ   R13, R8
	SUBQ   R13, R9
	SUBQ   R13, R10
	SUBQ   R13, R11
	ADDQ   $4, DX
	DECQ   R14
	JNZ    m4col

m4done:
	RET

// func scaleVec(p *float32, n int, s float32)
// p[i] *= s. A uniform multiply is one IEEE operation per lane, so the
// vector loop is bit-identical to the scalar loop on every input, NaN and
// ±Inf included.
TEXT ·scaleVec(SB), NOSPLIT, $0-20
	MOVQ   p+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVSS  s+16(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     sctail4

scloop8:
	MOVUPS (DI), X1
	MULPS  X0, X1
	MOVUPS X1, (DI)
	MOVUPS 16(DI), X2
	MULPS  X0, X2
	MOVUPS X2, 16(DI)
	ADDQ   $32, DI
	DECQ   BX
	JNZ    scloop8

sctail4:
	TESTQ $4, CX
	JZ    sctail1
	MOVUPS (DI), X1
	MULPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, DI

sctail1:
	ANDQ $3, CX
	JZ   scdone

scloop1:
	MOVSS (DI), X1
	MULSS X0, X1
	MOVSS X1, (DI)
	ADDQ  $4, DI
	DECQ  CX
	JNZ   scloop1

scdone:
	RET

// func reluVec(p *float32, n int)
// p[i] = 0 > p[i] ? 0 : p[i]: MAXPS with +0 in the destination and p[i] as
// the source, which returns its source unless the destination is greater —
// so −0, and every NaN with its payload and signalling bit, come back as
// they went in, exactly the scalar `if v < 0 { v = 0 }`, without a branch
// on the value. SSE1 only, one body on both tiers.
TEXT ·reluVec(SB), NOSPLIT, $0-16
	MOVQ  p+0(FP), DI
	MOVQ  n+8(FP), CX
	XORPS X0, X0
	MOVQ  CX, BX
	SHRQ  $3, BX
	JZ    rltail4

rlloop8:
	MOVUPS (DI), X1
	MOVUPS 16(DI), X2
	MOVAPS X0, X3
	MOVAPS X0, X4
	MAXPS  X1, X3
	MAXPS  X2, X4
	MOVUPS X3, (DI)
	MOVUPS X4, 16(DI)
	ADDQ   $32, DI
	DECQ   BX
	JNZ    rlloop8

rltail4:
	TESTQ $4, CX
	JZ    rltail1
	MOVUPS (DI), X1
	MOVAPS X0, X3
	MAXPS  X1, X3
	MOVUPS X3, (DI)
	ADDQ   $16, DI

rltail1:
	ANDQ $3, CX
	JZ   rldone

rlloop1:
	MOVSS  (DI), X1
	MOVAPS X0, X3
	MAXSS  X1, X3
	MOVSS  X3, (DI)
	ADDQ   $4, DI
	DECQ   CX
	JNZ    rlloop1

rldone:
	RET

// func rangeScreenVec(p *float32, n int) (lo, hi float32, nan bool)
// The range screen behind FT2's observe and clamp sweeps: min and max over
// p[0:n] (n ≥ 1) and whether any lane was unordered. SSE1 instructions only,
// so it is the same body on both tiers and needs no CPUID gate. MINPS/MAXPS
// return their second operand when either is NaN, so a NaN can wash out of
// lo/hi; CMPPS-unordered over each pair of loaded vectors (true in a lane
// when either operand is NaN) catches it instead, and lo/hi mean nothing when
// nan is set. ±0 compare equal: a zero extremum may carry either sign. Two
// lo (X0, X2) and two hi (X1, X3) accumulators all start at p[0].
TEXT ·rangeScreenVec(SB), NOSPLIT, $0-25
	MOVQ   p+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVSS  (SI), X0
	SHUFPS $0x00, X0, X0
	MOVAPS X0, X1
	MOVAPS X0, X2
	MOVAPS X0, X3
	XORPS  X6, X6
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     rstail4

rsloop16:
	MOVUPS (SI), X4
	MOVUPS 16(SI), X5
	MINPS  X4, X0
	MAXPS  X4, X1
	MINPS  X5, X2
	MAXPS  X5, X3
	CMPPS  X5, X4, $3
	ORPS   X4, X6
	MOVUPS 32(SI), X4
	MOVUPS 48(SI), X5
	MINPS  X4, X0
	MAXPS  X4, X1
	MINPS  X5, X2
	MAXPS  X5, X3
	CMPPS  X5, X4, $3
	ORPS   X4, X6
	ADDQ   $64, SI
	DECQ   BX
	JNZ    rsloop16

rstail4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX
	JZ   rstail1

rsloop4:
	MOVUPS (SI), X4
	MINPS  X4, X0
	MAXPS  X4, X1
	CMPPS  X4, X4, $3
	ORPS   X4, X6
	ADDQ   $16, SI
	DECQ   BX
	JNZ    rsloop4

rstail1:
	ANDQ $3, CX
	JZ   rsreduce

rsloop1:
	MOVSS (SI), X4
	MINSS X4, X0
	MAXSS X4, X1
	CMPSS X4, X4, $3
	ORPS  X4, X6
	ADDQ  $4, SI
	DECQ  CX
	JNZ   rsloop1

rsreduce:
	MINPS    X2, X0
	MAXPS    X3, X1
	MOVAPS   X0, X4
	SHUFPS   $0xEE, X4, X4
	MINPS    X4, X0
	MOVAPS   X0, X4
	SHUFPS   $0x55, X4, X4
	MINSS    X4, X0
	MOVSS    X0, lo+16(FP)
	MOVAPS   X1, X5
	SHUFPS   $0xEE, X5, X5
	MAXPS    X5, X1
	MOVAPS   X1, X5
	SHUFPS   $0x55, X5, X5
	MAXSS    X5, X1
	MOVSS    X1, hi+20(FP)
	MOVMSKPS X6, AX
	TESTL    AX, AX
	SETNE    nan+24(FP)
	RET

// func siluFinishVec(p *float32, e *float64, n int)
// p[i] = float32(float64(p[i]) / (1 + e[i])) — the finishing pass of SiLU
// after the scalar math.Exp pass filled e. Widening f32→f64 is exact, the
// add and divide are single correctly-rounded IEEE f64 operations per lane,
// and the f64→f32 narrowing rounds exactly like the scalar conversion, so
// the 4-lane loop is bit-identical to the scalar reference. n must be a
// multiple of 4 (the caller handles the tail).
TEXT ·siluFinishVec(SB), NOSPLIT, $0-24
	MOVQ         p+0(FP), DI
	MOVQ         e+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $2, CX
	JZ           sfdone
	MOVQ         $0x3FF0000000000000, AX
	MOVQ         AX, X9
	VBROADCASTSD X9, Y9

sfloop4:
	VCVTPS2PD (DI), Y0
	VMOVUPD   (SI), Y1
	VADDPD    Y9, Y1, Y1
	VDIVPD    Y1, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS   X0, (DI)
	ADDQ      $16, DI
	ADDQ      $32, SI
	DECQ      CX
	JNZ       sfloop4
	VZEROUPPER

sfdone:
	RET

// The packed exp: math.archExp's FMA path (Shibata's SIMD method, which the
// Go runtime runs one lane wide) run four float64 lanes wide. The table holds
// the two edges of the range screen, then archExp's own literals — LOG2E,
// LN2U, LN2L, 1/16, the Taylor coefficients 1/8! … 1/3!, 1/2, 1, 2 — and the
// exponent bias.
DATA exptab<>+0(SB)/8, $-708.0
DATA exptab<>+8(SB)/8, $709.0
DATA exptab<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA exptab<>+24(SB)/8, $0.69314718055966295651160180568695068359375
DATA exptab<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA exptab<>+40(SB)/8, $0.0625
DATA exptab<>+48(SB)/8, $2.4801587301587301587e-5
DATA exptab<>+56(SB)/8, $1.9841269841269841270e-4
DATA exptab<>+64(SB)/8, $1.3888888888888888889e-3
DATA exptab<>+72(SB)/8, $8.3333333333333333333e-3
DATA exptab<>+80(SB)/8, $4.1666666666666666667e-2
DATA exptab<>+88(SB)/8, $1.6666666666666666667e-1
DATA exptab<>+96(SB)/8, $0.5
DATA exptab<>+104(SB)/8, $1.0
DATA exptab<>+112(SB)/8, $2.0
DATA exptab<>+120(SB)/8, $0x3FF
GLOBL exptab<>(SB), RODATA, $128

// EXPCONSTS parks the constants every step multiplies by in Y4–Y13; the rest
// are broadcast from the table where EXP4 uses them (Y14, X15 stay free for
// the entry points).
#define EXPCONSTS \
	VBROADCASTSD exptab<>+16(SB), Y4  \
	VBROADCASTSD exptab<>+24(SB), Y5  \
	VBROADCASTSD exptab<>+32(SB), Y6  \
	VBROADCASTSD exptab<>+48(SB), Y7  \
	VBROADCASTSD exptab<>+56(SB), Y8  \
	VBROADCASTSD exptab<>+64(SB), Y9  \
	VBROADCASTSD exptab<>+72(SB), Y10 \
	VBROADCASTSD exptab<>+80(SB), Y11 \
	VBROADCASTSD exptab<>+104(SB), Y12 \
	VBROADCASTSD exptab<>+112(SB), Y13

// EXP4 replaces the four float64 x in Y0 by math.Exp(x), or jumps to expstop
// with Y0 untouched when a lane fails the ordered screen −708 ≤ x ≤ 709 —
// NaN, ±Inf, archExp's overflow exit and its denormal-result tail (biased
// exponent ≤ 0, x below −708.7) are all outside, so what is left is the
// straight line: k = int(x·LOG2E) rounded to nearest even like CVTSD2SL,
// r = (x − k·LN2U − k·LN2L)/16, the degree-8 Taylor of e^r − 1, four
// doublings, and one multiply by 2^k built in the exponent field. Each step
// is the packed form of archExp's scalar instruction with the same operands,
// so each lane rounds exactly as the scalar does. Clobbers AX, Y1–Y3.
#define EXP4 \
	VBROADCASTSD exptab<>+0(SB), Y2  \
	VCMPPD       $0x1D, Y2, Y0, Y1   \ // x ≥ −708, ordered
	VBROADCASTSD exptab<>+8(SB), Y2  \
	VCMPPD       $0x12, Y2, Y0, Y2   \ // x ≤ 709, ordered
	VANDPD       Y2, Y1, Y1          \
	VMOVMSKPD    Y1, AX              \
	CMPL         AX, $15             \
	JNE          expstop             \
	VMULPD       Y4, Y0, Y1          \
	VCVTPD2DQY   Y1, X3              \ // k
	VCVTDQ2PD    X3, Y1              \
	VFNMADD231PD Y5, Y1, Y0          \
	VFNMADD231PD Y6, Y1, Y0          \
	VBROADCASTSD exptab<>+40(SB), Y2 \
	VMULPD       Y2, Y0, Y0          \ // r
	VMOVAPD      Y7, Y1              \
	VFMADD213PD  Y8, Y0, Y1          \
	VFMADD213PD  Y9, Y0, Y1          \
	VFMADD213PD  Y10, Y0, Y1         \
	VFMADD213PD  Y11, Y0, Y1         \
	VBROADCASTSD exptab<>+88(SB), Y2 \
	VFMADD213PD  Y2, Y0, Y1          \
	VBROADCASTSD exptab<>+96(SB), Y2 \
	VFMADD213PD  Y2, Y0, Y1          \
	VFMADD213PD  Y12, Y0, Y1         \
	VMULPD       Y1, Y0, Y0          \ // e^r − 1
	VADDPD       Y13, Y0, Y1         \
	VMULPD       Y1, Y0, Y0          \
	VADDPD       Y13, Y0, Y1         \
	VMULPD       Y1, Y0, Y0          \
	VADDPD       Y13, Y0, Y1         \
	VMULPD       Y1, Y0, Y0          \
	VADDPD       Y13, Y0, Y1         \
	VFMADD213PD  Y12, Y1, Y0         \ // e^(16r)
	VPBROADCASTD exptab<>+120(SB), X2 \
	VPADDD       X2, X3, X3          \
	VPMOVZXDQ    X3, Y3              \
	VPSLLQ       $52, Y3, Y3         \
	VMULPD       Y3, Y0, Y0

// func expSumVec(p *float32, n int, maxv, sum float32) (done int, out float32)
// The exp pass of a softmax row: p[i] = float32(exp(float64(p[i] − maxv)))
// group of four by group of four, each result added to sum in index order
// (scalar ADDSS, reading back the lanes just stored). Stops before the first
// group that fails EXP4's screen or that n no longer covers; done counts the
// elements finished and out is sum so far.
TEXT ·expSumVec(SB), NOSPLIT, $0-36
	MOVQ         p+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS maxv+16(FP), X14
	MOVSS        sum+20(FP), X15
	XORQ         SI, SI
	SUBQ         $4, CX
	JLT          expstop
	EXPCONSTS

esloop:
	VMOVUPS    (DI)(SI*4), X0
	VSUBPS     X14, X0, X0
	VCVTPS2PD  X0, Y0
	EXP4
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(SI*4)
	VADDSS     (DI)(SI*4), X15, X15
	VADDSS     4(DI)(SI*4), X15, X15
	VADDSS     8(DI)(SI*4), X15, X15
	VADDSS     12(DI)(SI*4), X15, X15
	ADDQ       $4, SI
	CMPQ       SI, CX
	JLE        esloop

expstop:
	VZEROUPPER
	MOVQ  SI, done+24(FP)
	MOVSS X15, out+32(FP)
	RET

// func expNegVec(dst *float64, src *float32, n int) (done int)
// SiLU's exp fill: dst[i] = exp(−float64(src[i])), stopping like expSumVec.
TEXT ·expNegVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), BX
	MOVQ n+16(FP), CX
	XORQ SI, SI
	SUBQ $4, CX
	JLT  expstop
	EXPCONSTS
	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X14
	VBROADCASTSD X14, Y14

enloop:
	VCVTPS2PD (BX)(SI*4), Y0
	VXORPD    Y14, Y0, Y0
	EXP4
	VMOVUPD   Y0, (DI)(SI*8)
	ADDQ      $4, SI
	CMPQ      SI, CX
	JLE       enloop

expstop:
	VZEROUPPER
	MOVQ SI, done+24(FP)
	RET

// GELU's constants: the cubic's 0.044715 and √(2/π), math.tanh's rational
// coefficients P0–P2 and Q0–Q2 and its two branch edges (0.625 and
// MAXLOG/2), the clip that keeps EXP4's screen open, 0.5, the float64 sign
// bit, and the float32 exponent field.
DATA gelutab<>+0(SB)/8, $0.044715
DATA gelutab<>+8(SB)/8, $0.7978845608028654
DATA gelutab<>+16(SB)/8, $-9.64399179425052238628e-1
DATA gelutab<>+24(SB)/8, $-9.92877231001918586564e1
DATA gelutab<>+32(SB)/8, $-1.61468768441708447952e3
DATA gelutab<>+40(SB)/8, $1.12811678491632931402e2
DATA gelutab<>+48(SB)/8, $2.23548839060100448583e3
DATA gelutab<>+56(SB)/8, $4.84406305325125486048e3
DATA gelutab<>+64(SB)/8, $0.625
DATA gelutab<>+72(SB)/8, $44.014845965556527147994
DATA gelutab<>+80(SB)/8, $90.0
DATA gelutab<>+88(SB)/8, $0.5
DATA gelutab<>+96(SB)/8, $0x8000000000000000
DATA gelutab<>+104(SB)/4, $0x7F800000
GLOBL gelutab<>(SB), RODATA, $108

// func geluVec(p *float32, n int) (done int)
// GELU in place, p[i] = float32((0.5·x)·(1 + tanh(u))) with x = float64(p[i])
// and u = c·(x + ((0.044715·x)·x)·x), group of four by group of four: each
// step is the packed form of the scalar loop's IEEE operation with the same
// operands, never fused. tanh is math.tanh with all three branches computed
// and one picked per lane — u + ((u·s)·P(s))/Q(s), s = u·u, below |u| =
// 0.625; 1 − 2/(exp(2|u|) + 1) with u's sign from there; ±1 above MAXLOG/2 —
// and EXP4 is fed min(2|u|, 90), so its screen never trips. Stops like
// expSumVec before the first group holding a NaN or ±Inf (every finite
// float32 keeps u and the result finite) or that n no longer covers. x stays
// in Y14 and u in Y15; the polynomial waits out EXP4 in the frame.
TEXT ·geluVec(SB), NOSPLIT, $32-24
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	XORQ SI, SI
	SUBQ $4, CX
	JLT  expstop
	EXPCONSTS

glloop:
	VBROADCASTSS gelutab<>+104(SB), X1
	VANDPS       (DI)(SI*4), X1, X2
	VPCMPEQD     X1, X2, X2          // exponent all ones: NaN or ±Inf
	VMOVMSKPS    X2, AX
	TESTL        AX, AX
	JNZ          expstop
	VCVTPS2PD    (DI)(SI*4), Y14     // x
	VBROADCASTSD gelutab<>+0(SB), Y1
	VMULPD       Y14, Y1, Y1
	VMULPD       Y14, Y1, Y1
	VMULPD       Y14, Y1, Y1
	VADDPD       Y1, Y14, Y1
	VBROADCASTSD gelutab<>+8(SB), Y2
	VMULPD       Y1, Y2, Y15         // u
	VMULPD       Y15, Y15, Y0        // s
	VBROADCASTSD gelutab<>+16(SB), Y1
	VMULPD       Y0, Y1, Y1
	VBROADCASTSD gelutab<>+24(SB), Y2
	VADDPD       Y2, Y1, Y1
	VMULPD       Y0, Y1, Y1
	VBROADCASTSD gelutab<>+32(SB), Y2
	VADDPD       Y2, Y1, Y1          // P(s)
	VMULPD       Y0, Y15, Y2
	VMULPD       Y1, Y2, Y1          // (u·s)·P(s)
	VBROADCASTSD gelutab<>+40(SB), Y2
	VADDPD       Y2, Y0, Y2
	VMULPD       Y0, Y2, Y2
	VBROADCASTSD gelutab<>+48(SB), Y3
	VADDPD       Y3, Y2, Y2
	VMULPD       Y0, Y2, Y2
	VBROADCASTSD gelutab<>+56(SB), Y3
	VADDPD       Y3, Y2, Y2          // Q(s)
	VDIVPD       Y2, Y1, Y1
	VADDPD       Y1, Y15, Y1
	VMOVUPD      Y1, (SP)            // the |u| < 0.625 branch
	VBROADCASTSD gelutab<>+96(SB), Y3
	VANDNPD      Y15, Y3, Y0         // |u|
	VMULPD       Y13, Y0, Y0         // 2|u|
	VBROADCASTSD gelutab<>+80(SB), Y2
	VMINPD       Y2, Y0, Y0
	EXP4
	VADDPD       Y12, Y0, Y0
	VDIVPD       Y0, Y13, Y0
	VSUBPD       Y0, Y12, Y0         // 1 − 2/(exp(2|u|) + 1)
	VBROADCASTSD gelutab<>+96(SB), Y3
	VANDPD       Y3, Y15, Y1         // u's sign
	VANDNPD      Y15, Y3, Y2         // |u|
	VXORPD       Y1, Y0, Y0
	VORPD        Y12, Y1, Y1         // ±1
	VBROADCASTSD gelutab<>+64(SB), Y3
	VCMPPD       $0x11, Y3, Y2, Y3   // |u| < 0.625, ordered
	VBLENDVPD    Y3, (SP), Y0, Y0
	VBROADCASTSD gelutab<>+72(SB), Y3
	VCMPPD       $0x1E, Y3, Y2, Y3   // |u| > MAXLOG/2, ordered
	VBLENDVPD    Y3, Y1, Y0, Y0      // tanh(u)
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD gelutab<>+88(SB), Y1
	VMULPD       Y14, Y1, Y1
	VMULPD       Y0, Y1, Y0
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (DI)(SI*4)
	ADDQ         $4, SI
	CMPQ         SI, CX
	JLE          glloop

expstop:
	VZEROUPPER
	MOVQ SI, done+16(FP)
	RET
