#include "textflag.h"

// func xorAVX2(dst []byte, srcs [][]byte)
//
// For each 128 bytes of dst: load srcs[0] into Y0–Y3, XOR in every other
// source, store once. The tail under 128 bytes takes 32-byte, then
// 8-byte, then 1-byte steps the same way. A source header is 24 bytes;
// its data pointer is its first word.
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), SI
	MOVQ srcs_len+32(FP), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (SI)(R9*8), R9 // R9: end of the source headers
	MOVQ (SI), R10      // R10: first source
	ADDQ $24, SI        // SI: second source header
	XORQ AX, AX         // AX: offset into dst and every source

loop128:
	LEAQ 128(AX), BX
	CMPQ BX, CX
	JA   loop32
	VMOVDQU 0(R10)(AX*1), Y0
	VMOVDQU 32(R10)(AX*1), Y1
	VMOVDQU 64(R10)(AX*1), Y2
	VMOVDQU 96(R10)(AX*1), Y3
	MOVQ SI, R11

src128:
	CMPQ R11, R9
	JAE  store128
	MOVQ (R11), R12
	VPXOR 0(R12)(AX*1), Y0, Y0
	VPXOR 32(R12)(AX*1), Y1, Y1
	VPXOR 64(R12)(AX*1), Y2, Y2
	VPXOR 96(R12)(AX*1), Y3, Y3
	ADDQ $24, R11
	JMP  src128

store128:
	VMOVDQU Y0, 0(DI)(AX*1)
	VMOVDQU Y1, 32(DI)(AX*1)
	VMOVDQU Y2, 64(DI)(AX*1)
	VMOVDQU Y3, 96(DI)(AX*1)
	MOVQ BX, AX
	JMP  loop128

loop32:
	LEAQ 32(AX), BX
	CMPQ BX, CX
	JA   loop8
	VMOVDQU (R10)(AX*1), Y0
	MOVQ SI, R11

src32:
	CMPQ R11, R9
	JAE  store32
	MOVQ (R11), R12
	VPXOR (R12)(AX*1), Y0, Y0
	ADDQ $24, R11
	JMP  src32

store32:
	VMOVDQU Y0, (DI)(AX*1)
	MOVQ BX, AX
	JMP  loop32

loop8:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JA   loop1
	MOVQ (R10)(AX*1), DX
	MOVQ SI, R11

src8:
	CMPQ R11, R9
	JAE  store8
	MOVQ (R11), R12
	XORQ (R12)(AX*1), DX
	ADDQ $24, R11
	JMP  src8

store8:
	MOVQ DX, (DI)(AX*1)
	MOVQ BX, AX
	JMP  loop8

loop1:
	CMPQ AX, CX
	JAE  done
	MOVB (R10)(AX*1), DX
	MOVQ SI, R11

src1:
	CMPQ R11, R9
	JAE  store1
	MOVQ (R11), R12
	XORB (R12)(AX*1), DX
	ADDQ $24, R11
	JMP  src1

store1:
	MOVB DX, (DI)(AX*1)
	INCQ AX
	JMP  loop1

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
