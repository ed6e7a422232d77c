#include "textflag.h"

// Constants load with VPBROADCASTQ from memory and every instruction on a
// vector register is VEX-encoded: a legacy SSE instruction after a 256-bit
// write costs a state transition on every call. VZEROUPPER precedes RET.

DATA rngMaskQ<>+0(SB)/8, $0x7fffffffffffffff
GLOBL rngMaskQ<>(SB), RODATA|NOPTR, $8

// retryAt-1: a draw v is retried when v > retryAt-1.
DATA retryBelowQ<>+0(SB)/8, $0x7ffffffffffffdff
GLOBL retryBelowQ<>(SB), RODATA|NOPTR, $8

// Lane masks of a last group of r draws: the four quadwords at offset 8r.
// A group's first draw is in lane 3, so its r draws are the top r lanes.
DATA tailMaskQ<>+0(SB)/8, $0
DATA tailMaskQ<>+8(SB)/8, $0
DATA tailMaskQ<>+16(SB)/8, $0
DATA tailMaskQ<>+24(SB)/8, $0
DATA tailMaskQ<>+32(SB)/8, $-1
DATA tailMaskQ<>+40(SB)/8, $-1
DATA tailMaskQ<>+48(SB)/8, $-1
GLOBL tailMaskQ<>(SB), RODATA|NOPTR, $56

// func bernoulliDrawsAVX2(vec *[607]int64, tap, feed int, k uint64, n int) (bits uint64, drawn int)
TEXT ·bernoulliDrawsAVX2(SB), NOSPLIT, $0-56
	MOVQ vec+0(FP), DI
	MOVQ tap+8(FP), SI
	MOVQ feed+16(FP), DX
	MOVQ n+32(FP), R9
	VPBROADCASTQ k+24(FP), Y15
	VPBROADCASTQ rngMaskQ<>(SB), Y14
	VPBROADCASTQ retryBelowQ<>(SB), Y13
	LEAQ -32(DI)(SI*8), SI  // &vec[tap-4]
	LEAQ -32(DI)(DX*8), DX  // &vec[feed-4]
	XORQ AX, AX             // bits
	XORQ CX, CX             // draws committed
	SUBQ $4, R9             // draws left after this group
	JLT  tail

group:
	VMOVDQU   (DX), Y0
	VPADDQ    (SI), Y0, Y0  // the four new ring values
	VPAND     Y14, Y0, Y1   // their Int63 draws
	VPCMPGTQ  Y13, Y1, Y2   // lanes to retry
	VPTEST    Y2, Y2
	JNZ       done
	VMOVDQU   Y0, (DX)
	VPCMPGTQ  Y1, Y15, Y3   // k > v
	VPERMQ    $0x1b, Y3, Y3 // draw order: first draw in lane 0
	VMOVMSKPD Y3, R8
	SHLQ      CX, R8
	ORQ       R8, AX
	ADDQ      $4, CX
	SUBQ      $32, SI
	SUBQ      $32, DX
	SUBQ      $4, R9
	JGE       group

tail:
	ADDQ $4, R9             // draws of the last group, 0 to 3
	JZ   done
	LEAQ tailMaskQ<>(SB), R10
	VMOVDQU   (R10)(R9*8), Y12
	VMOVDQU   (DX), Y0
	VPADDQ    (SI), Y0, Y0
	VPAND     Y14, Y0, Y1
	VPCMPGTQ  Y13, Y1, Y2
	VPTEST    Y12, Y2       // retries among the committed lanes only
	JNZ       done
	VPMASKMOVQ Y0, Y12, (DX)
	VPCMPGTQ  Y1, Y15, Y3
	VPAND     Y12, Y3, Y3
	VPERMQ    $0x1b, Y3, Y3
	VMOVMSKPD Y3, R8
	SHLQ      CX, R8
	ORQ       R8, AX
	ADDQ      R9, CX

done:
	MOVQ AX, bits+40(FP)
	MOVQ CX, drawn+48(FP)
	VZEROUPPER
	RET
