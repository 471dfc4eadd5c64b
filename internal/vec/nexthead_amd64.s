#include "textflag.h"

// HEAD leaves in acc the four lanes L2SquaredHead keeps for the row at
// off(SI): lane j accumulates (q[k]-h[k])² for k = j, j+4, j+8, j+12 in
// that order, as its s0…s3 do. It subtracts h[k]-q[k], the exact
// negation of q[k]-h[k] (rounding to nearest is symmetric), so the
// squares are the same. Loads are unaligned: a caller may pass any
// sub-slice.
#define HEAD(off, acc) \
	MOVUPS off(SI), acc; SUBPS X0, acc; MULPS acc, acc; \
	MOVUPS off+16(SI), X8; SUBPS X1, X8; MULPS X8, X8; ADDPS X8, acc; \
	MOVUPS off+32(SI), X8; SUBPS X2, X8; MULPS X8, X8; ADDPS X8, acc; \
	MOVUPS off+48(SI), X8; SUBPS X3, X8; MULPS X8, X8; ADDPS X8, acc

// func nextHead4(q, heads, bounds []float32, limit float32) int
//
// Four rows a block: HEAD for each, a 4×4 transpose so lane r holds row
// r's s0…s3 across four registers, and ((s0+s1)+s2)+s3 — L2SquaredHead's
// association — so each lane's sum is bit-identical to it. No FMA. A row
// survives where CMPPS NLT (not less than) holds against both its bound
// and the limit: !(bound < h) is !(h > bound), so a NaN sum or bound
// survives exactly as the scalar test lets it.
TEXT ·nextHead4(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), AX
	MOVQ heads_base+24(FP), SI
	MOVQ bounds_base+48(FP), DI
	MOVQ bounds_len+56(FP), CX
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	MOVSS limit+72(FP), X10
	SHUFPS $0, X10, X10
	XORQ BX, BX

loop:
	CMPQ BX, CX
	JAE  done
	HEAD(0, X4)
	HEAD(64, X5)
	HEAD(128, X6)
	HEAD(192, X7)

	// Rows a…d in X4…X7; afterwards X5, X9, X7, X6 hold s0…s3 of all four.
	MOVAPS   X4, X8
	UNPCKLPS X5, X8 // a0 b0 a1 b1
	UNPCKHPS X5, X4 // a2 b2 a3 b3
	MOVAPS   X6, X9
	UNPCKLPS X7, X9 // c0 d0 c1 d1
	UNPCKHPS X7, X6 // c2 d2 c3 d3
	MOVAPS   X8, X5
	MOVLHPS  X9, X5 // a0 b0 c0 d0
	MOVHLPS  X8, X9 // a1 b1 c1 d1
	MOVAPS   X4, X7
	MOVLHPS  X6, X7 // a2 b2 c2 d2
	MOVHLPS  X4, X6 // a3 b3 c3 d3
	ADDPS    X9, X5
	ADDPS    X7, X5
	ADDPS    X6, X5

	MOVUPS   (DI)(BX*4), X8
	MOVAPS   X10, X9
	CMPPS    X5, X8, $5 // !(bound < sum)
	CMPPS    X5, X9, $5 // !(limit < sum)
	ANDPS    X9, X8
	MOVMSKPS X8, DX
	TESTL    DX, DX
	JNZ      found
	ADDQ     $256, SI
	ADDQ     $4, BX
	JMP      loop

found:
	BSFL DX, DX
	ADDQ DX, BX

done:
	MOVQ BX, ret+80(FP)
	RET
