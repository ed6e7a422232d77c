#include "textflag.h"

// Rules every leaf here keeps, so that it rounds exactly like the Go loop
// it shadows: a separate VMULPD and VADDPD per step (never FMA), with the
// accumulator as the first source of the add; VEX encoding only (a legacy
// SSE instruction after a 256-bit write costs a state transition on every
// call); and VZEROUPPER before every RET. The loop heads are not padded
// to an alignment: 16- and 32-byte padding measured no faster.

// func dotRows16AVX2(w []float64, cols int, x, y []float64)
//
// Rows 4g..4g+3 accumulate in Y(g), lane k holding row 4g+k. Each step
// takes two columns: a 128-bit load per row puts (w[r,j], w[r,j+1]) of
// rows 4g and 4g+2 into one register and of rows 4g+1 and 4g+3 into
// another; VUNPCKLPD and VUNPCKHPD then give column j and column j+1 of
// the four rows, which are added in that order.
TEXT ·dotRows16AVX2(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), SI
	MOVQ cols+24(FP), BX
	MOVQ x_base+32(FP), DI
	MOVQ x_len+40(FP), CX
	MOVQ y_base+56(FP), DX
	SHLQ $3, BX             // row stride in bytes
	LEAQ (BX)(BX*2), R8     // three rows
	LEAQ (SI)(BX*4), R9     // row 4
	LEAQ (R9)(BX*4), R10    // row 8
	LEAQ (R10)(BX*4), R11   // row 12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ $1, CX             // column pairs
	JZ   dotstore


dotloop:
	VBROADCASTSD (DI), Y14
	VBROADCASTSD 8(DI), Y15

	VMOVUPD     (SI), X4
	VINSERTF128 $1, (SI)(BX*2), Y4, Y4
	VMOVUPD     (SI)(BX*1), X5
	VINSERTF128 $1, (SI)(R8*1), Y5, Y5
	VUNPCKLPD   Y5, Y4, Y6
	VUNPCKHPD   Y5, Y4, Y7
	VMULPD      Y14, Y6, Y6
	VADDPD      Y6, Y0, Y0
	VMULPD      Y15, Y7, Y7
	VADDPD      Y7, Y0, Y0

	VMOVUPD     (R9), X8
	VINSERTF128 $1, (R9)(BX*2), Y8, Y8
	VMOVUPD     (R9)(BX*1), X9
	VINSERTF128 $1, (R9)(R8*1), Y9, Y9
	VUNPCKLPD   Y9, Y8, Y10
	VUNPCKHPD   Y9, Y8, Y11
	VMULPD      Y14, Y10, Y10
	VADDPD      Y10, Y1, Y1
	VMULPD      Y15, Y11, Y11
	VADDPD      Y11, Y1, Y1

	VMOVUPD     (R10), X4
	VINSERTF128 $1, (R10)(BX*2), Y4, Y4
	VMOVUPD     (R10)(BX*1), X5
	VINSERTF128 $1, (R10)(R8*1), Y5, Y5
	VUNPCKLPD   Y5, Y4, Y6
	VUNPCKHPD   Y5, Y4, Y7
	VMULPD      Y14, Y6, Y6
	VADDPD      Y6, Y2, Y2
	VMULPD      Y15, Y7, Y7
	VADDPD      Y7, Y2, Y2

	VMOVUPD     (R11), X8
	VINSERTF128 $1, (R11)(BX*2), Y8, Y8
	VMOVUPD     (R11)(BX*1), X9
	VINSERTF128 $1, (R11)(R8*1), Y9, Y9
	VUNPCKLPD   Y9, Y8, Y10
	VUNPCKHPD   Y9, Y8, Y11
	VMULPD      Y14, Y10, Y10
	VADDPD      Y10, Y3, Y3
	VMULPD      Y15, Y11, Y11
	VADDPD      Y11, Y3, Y3

	ADDQ $16, SI
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, DI
	DECQ CX
	JNZ  dotloop

dotstore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func dotRows8x4AVX2(w []float64, cols int, xs, ys [][]float64, row, n int)
//
// Eight rows against four samples. Sample s accumulates rows 0..3 in
// Y(2s) and rows 4..7 in Y(2s+1), lane k holding row k or 4+k. Each step
// takes two columns of the eight rows, unpacked as in dotRows16AVX2, and
// every sample adds column j and then column j+1 from the same registers,
// so one load of the weights feeds four samples.
TEXT ·dotRows8x4AVX2(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), SI
	MOVQ cols+24(FP), BX
	MOVQ xs_base+32(FP), AX
	MOVQ 0(AX), R10         // xs[0]
	MOVQ 24(AX), R11        // xs[1]
	MOVQ 48(AX), R12        // xs[2]
	MOVQ 72(AX), R13        // xs[3]
	MOVQ n+88(FP), CX
	SHLQ $3, BX             // row stride in bytes
	LEAQ (BX)(BX*2), R8     // three rows
	LEAQ (SI)(BX*4), R9     // row 4
	XORQ DI, DI             // column offset in bytes
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SHRQ $1, CX             // column pairs
	JZ   batchstore

batchloop:
	VMOVUPD     (SI), X14
	VINSERTF128 $1, (SI)(BX*2), Y14, Y14
	VMOVUPD     (SI)(BX*1), X15
	VINSERTF128 $1, (SI)(R8*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y8  // column j, rows 0..3
	VUNPCKHPD   Y15, Y14, Y9  // column j+1, rows 0..3
	VMOVUPD     (R9), X14
	VINSERTF128 $1, (R9)(BX*2), Y14, Y14
	VMOVUPD     (R9)(BX*1), X15
	VINSERTF128 $1, (R9)(R8*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y10 // column j, rows 4..7
	VUNPCKHPD   Y15, Y14, Y11 // column j+1, rows 4..7

	VBROADCASTSD (R10)(DI*1), Y12
	VBROADCASTSD 8(R10)(DI*1), Y13
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y12, Y10, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y13, Y9, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y13, Y11, Y15
	VADDPD       Y15, Y1, Y1

	VBROADCASTSD (R11)(DI*1), Y12
	VBROADCASTSD 8(R11)(DI*1), Y13
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y12, Y10, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y13, Y9, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y13, Y11, Y15
	VADDPD       Y15, Y3, Y3

	VBROADCASTSD (R12)(DI*1), Y12
	VBROADCASTSD 8(R12)(DI*1), Y13
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y12, Y10, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y13, Y9, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y13, Y11, Y15
	VADDPD       Y15, Y5, Y5

	VBROADCASTSD (R13)(DI*1), Y12
	VBROADCASTSD 8(R13)(DI*1), Y13
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y12, Y10, Y15
	VADDPD       Y15, Y7, Y7
	VMULPD       Y13, Y9, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y13, Y11, Y15
	VADDPD       Y15, Y7, Y7

	ADDQ $16, SI
	ADDQ $16, R9
	ADDQ $16, DI
	DECQ CX
	JNZ  batchloop

batchstore:
	MOVQ ys_base+56(FP), AX
	MOVQ row+80(FP), DX
	SHLQ $3, DX
	MOVQ 0(AX), R10
	VMOVUPD Y0, (R10)(DX*1)
	VMOVUPD Y1, 32(R10)(DX*1)
	MOVQ 24(AX), R10
	VMOVUPD Y2, (R10)(DX*1)
	VMOVUPD Y3, 32(R10)(DX*1)
	MOVQ 48(AX), R10
	VMOVUPD Y4, (R10)(DX*1)
	VMOVUPD Y5, 32(R10)(DX*1)
	MOVQ 72(AX), R10
	VMOVUPD Y6, (R10)(DX*1)
	VMOVUPD Y7, 32(R10)(DX*1)
	VZEROUPPER
	RET

// func axpyRows4AVX2(y, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)
//
// Lanes run over four adjacent columns; each lane adds r0·x0, r1·x1, r2·x2
// and r3·x3 to its y in that order. Columns past the last multiple of four
// take the same steps one at a time.
TEXT ·axpyRows4AVX2(SB), NOSPLIT, $0-152
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ r0_base+24(FP), R8
	MOVQ r1_base+48(FP), R9
	MOVQ r2_base+72(FP), R10
	MOVQ r3_base+96(FP), R11
	VBROADCASTSD x0+120(FP), Y12
	VBROADCASTSD x1+128(FP), Y13
	VBROADCASTSD x2+136(FP), Y14
	VBROADCASTSD x3+144(FP), Y15
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   axpy4quad


axpy4oct:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y2
	VMULPD  (R8)(AX*8), Y12, Y1
	VMULPD  32(R8)(AX*8), Y12, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMULPD  (R9)(AX*8), Y13, Y1
	VMULPD  32(R9)(AX*8), Y13, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMULPD  (R10)(AX*8), Y14, Y1
	VMULPD  32(R10)(AX*8), Y14, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMULPD  (R11)(AX*8), Y15, Y1
	VMULPD  32(R11)(AX*8), Y15, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     axpy4oct

axpy4quad:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axpy4tail
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*8), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(AX*8), Y14, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R11)(AX*8), Y15, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

axpy4tail:
	CMPQ AX, CX
	JGE  axpy4done
	VMOVSD (DI)(AX*8), X0
	VMULSD (R8)(AX*8), X12, X1
	VADDSD X1, X0, X0
	VMULSD (R9)(AX*8), X13, X1
	VADDSD X1, X0, X0
	VMULSD (R10)(AX*8), X14, X1
	VADDSD X1, X0, X0
	VMULSD (R11)(AX*8), X15, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func axpyRowAVX2(y, r []float64, x float64)
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ r_base+24(FP), R8
	VBROADCASTSD x+48(FP), Y12
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   axpy1quad


axpy1oct:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y2
	VMULPD  (R8)(AX*8), Y12, Y1
	VMULPD  32(R8)(AX*8), Y12, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     axpy1oct

axpy1quad:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axpy1tail
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

axpy1tail:
	CMPQ AX, CX
	JGE  axpy1done
	VMOVSD (DI)(AX*8), X0
	VMULSD (R8)(AX*8), X12, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    axpy1tail

axpy1done:
	VZEROUPPER
	RET
