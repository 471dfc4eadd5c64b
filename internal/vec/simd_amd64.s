#include "textflag.h"

// A block (see Heads) holds float k of its eight rows at k·32(SI), one
// YMM register's worth. FIRST and TERM add (q[k]-h[k])² to accumulator
// acc for all eight rows at once: acc = Y0…Y3 for k mod 4, so lane r of
// accumulator j sums k = j, j+4, j+8, j+12 in that order, as
// L2SquaredHead's s0…s3 do. No FMA: each product is rounded before it
// is added. q[k] is broadcast from memory, which measured no slower
// than keeping the broadcasts in registers.
#define FIRST(qoff, hoff, acc) \
	VBROADCASTSS qoff(AX), Y7; \
	VSUBPS       hoff(SI), Y7, Y8; \
	VMULPS       Y8, Y8, acc

#define TERM(qoff, hoff, acc) \
	VBROADCASTSS qoff(AX), Y7; \
	VSUBPS       hoff(SI), Y7, Y8; \
	VMULPS       Y8, Y8, Y8; \
	VADDPS       Y8, acc, acc

// SURVIVORS leaves in dst the rows whose ((s0+s1)+s2)+s3 — the
// association L2SquaredHead returns — passes both its bound and the
// limit: predicate NGT_UQ is !(sum > x), so a NaN sum or bound passes
// exactly as the scalar test lets it.
#define SURVIVORS(dst) \
	VADDPS    Y1, Y0, Y4; \
	VADDPS    Y2, Y4, Y4; \
	VADDPS    Y3, Y4, Y4; \
	VCMPPS    $0x1a, (DI), Y4, Y5; \
	VCMPPS    $0x1a, Y6, Y4, Y9; \
	VANDPS    Y9, Y5, Y5; \
	VMOVMSKPS Y5, dst

// func scanBlocksAVX2(q, heads, bounds []float32, limit float32) (block int, mask uint32)
//
// One block a step: floats 0–7 of all eight rows, then SURVIVORS on the
// partial sums. When no row survives that, floats 8–15 are skipped; a
// partial sum only grows by non-negative terms, and rounding to nearest
// is monotone, so a row out on it is out on the full sum. Otherwise
// floats 8–15 complete the sums, bit-identical to L2SquaredHead, and
// SURVIVORS on them decides.
TEXT ·scanBlocksAVX2(SB), NOSPLIT, $0-92
	MOVQ         q_base+0(FP), AX
	MOVQ         heads_base+24(FP), SI
	MOVQ         bounds_base+48(FP), DI
	MOVQ         bounds_len+56(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS limit+72(FP), Y6
	XORQ         BX, BX

loop:
	CMPQ BX, CX
	JAE  none
	FIRST(0, 0, Y0)
	FIRST(4, 32, Y1)
	FIRST(8, 64, Y2)
	FIRST(12, 96, Y3)
	TERM(16, 128, Y0)
	TERM(20, 160, Y1)
	TERM(24, 192, Y2)
	TERM(28, 224, Y3)
	SURVIVORS(DX)
	TESTL DX, DX
	JZ    next
	TERM(32, 256, Y0)
	TERM(36, 288, Y1)
	TERM(40, 320, Y2)
	TERM(44, 352, Y3)
	TERM(48, 384, Y0)
	TERM(52, 416, Y1)
	TERM(56, 448, Y2)
	TERM(60, 480, Y3)
	SURVIVORS(DX)
	TESTL DX, DX
	JNZ   done

next:
	ADDQ $512, SI
	ADDQ $32, DI
	INCQ BX
	JMP  loop

none:
	XORL DX, DX

done:
	VZEROUPPER
	MOVQ BX, block+80(FP)
	MOVL DX, mask+88(FP)
	RET

// func finiteAVX2(v []float32) bool
//
// A component is NaN or ±Inf exactly when its exponent bits are all
// ones. Eight components a step: AND with the exponent mask, compare
// equal to it, OR into Y1; then the last len mod 8 one at a time.
TEXT ·finiteAVX2(SB), NOSPLIT, $0-25
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVL         $0x7f800000, AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	VPXOR        Y1, Y1, Y1

wide:
	CMPQ     CX, $8
	JB       narrow
	VPAND    (SI), Y0, Y2
	VPCMPEQD Y0, Y2, Y2
	VPOR     Y2, Y1, Y1
	ADDQ     $32, SI
	SUBQ     $8, CX
	JMP      wide

narrow:
	VPTEST     Y1, Y1
	VZEROUPPER
	JNZ        nonfinite

tail:
	TESTQ CX, CX
	JZ    allfinite
	MOVL  (SI), DX
	ANDL  AX, DX
	CMPL  DX, AX
	JEQ   nonfinite
	ADDQ  $4, SI
	DECQ  CX
	JMP   tail

allfinite:
	MOVB $1, ret+24(FP)
	RET

nonfinite:
	MOVB $0, ret+24(FP)
	RET

// func cpuHasAVX2() bool
//
// CPUID leaf 7 reports AVX2 (EBX bit 5), which the kernel's 256-bit
// instructions need; leaf 1's OSXSAVE (ECX bit 27) and XGETBV's XCR0
// bits 1 and 2 say the OS saves the XMM and YMM state across switches.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	SETCS ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
