#include "textflag.h"

// PLANE adds q's chunk (X0) times plane j's chunk at addr into
// accumulator acc, lane by lane: MULPS then ADDPS, no FMA, so each
// product is rounded before it is added, as in vec.Dot. Lane k of acc
// is vec.Dot's s_k.
#define PLANE(addr, acc) \
	MOVUPS addr, X15; \
	MULPS  X0, X15; \
	ADDPS  X15, acc

// func dots4(q, planes []float32, n int, acc *[4 * groupPlanes]float32)
//
// One pass over q's whole four-float chunks. Plane j's chunk lies
// j·stride bytes past the first plane's: planes 0–4 are addressed from
// DI, 5–9 from R10 = DI + 5·stride and 10–13 from R11 = DI + 10·stride,
// with index BX = stride or R9 = 3·stride. After plane j the ladder
// leaves the chunk when n = j+1, a branch that goes the same way on
// every chunk. Accumulators past n stay zero.
TEXT ·dots4(SB), NOSPLIT, $0-64
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ planes_base+24(FP), DI
	MOVQ n+48(FP), DX
	MOVQ acc+56(FP), R8
	LEAQ (CX*4), BX
	LEAQ (BX)(BX*2), R9
	LEAQ (DI)(BX*4), R10
	ADDQ BX, R10
	LEAQ (R10)(BX*4), R11
	ADDQ BX, R11
	SHRQ $2, CX
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORPS X8, X8
	XORPS X9, X9
	XORPS X10, X10
	XORPS X11, X11
	XORPS X12, X12
	XORPS X13, X13
	XORPS X14, X14
	TESTQ CX, CX
	JZ    store

chunk:
	MOVUPS (SI), X0
	PLANE((DI), X1)
	CMPQ   DX, $1
	JEQ    next
	PLANE((DI)(BX*1), X2)
	CMPQ   DX, $2
	JEQ    next
	PLANE((DI)(BX*2), X3)
	CMPQ   DX, $3
	JEQ    next
	PLANE((DI)(R9*1), X4)
	CMPQ   DX, $4
	JEQ    next
	PLANE((DI)(BX*4), X5)
	CMPQ   DX, $5
	JEQ    next
	PLANE((R10), X6)
	CMPQ   DX, $6
	JEQ    next
	PLANE((R10)(BX*1), X7)
	CMPQ   DX, $7
	JEQ    next
	PLANE((R10)(BX*2), X8)
	CMPQ   DX, $8
	JEQ    next
	PLANE((R10)(R9*1), X9)
	CMPQ   DX, $9
	JEQ    next
	PLANE((R10)(BX*4), X10)
	CMPQ   DX, $10
	JEQ    next
	PLANE((R11), X11)
	CMPQ   DX, $11
	JEQ    next
	PLANE((R11)(BX*1), X12)
	CMPQ   DX, $12
	JEQ    next
	PLANE((R11)(BX*2), X13)
	CMPQ   DX, $13
	JEQ    next
	PLANE((R11)(R9*1), X14)

next:
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, R10
	ADDQ $16, R11
	DECQ CX
	JNZ  chunk

store:
	MOVUPS X1, 0(R8)
	MOVUPS X2, 16(R8)
	MOVUPS X3, 32(R8)
	MOVUPS X4, 48(R8)
	MOVUPS X5, 64(R8)
	MOVUPS X6, 80(R8)
	MOVUPS X7, 96(R8)
	MOVUPS X8, 112(R8)
	MOVUPS X9, 128(R8)
	MOVUPS X10, 144(R8)
	MOVUPS X11, 160(R8)
	MOVUPS X12, 176(R8)
	MOVUPS X13, 192(R8)
	MOVUPS X14, 208(R8)
	RET
