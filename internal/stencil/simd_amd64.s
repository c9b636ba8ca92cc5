//go:build amd64 && !purego

#include "textflag.h"

// 4-lane float64 AVX2 kernels for the hottest Table 4 stencils.
//
// Bitwise contract: vectorization here is across *points*, never
// across the terms of one point — each lane evaluates one grid point
// with adds and multiplies issued in exactly the scalar kernel's
// order, and FMA is deliberately not used (a fused multiply-add
// rounds once where mul+add rounds twice, which would break bitwise
// equality with the row path). Point updates in a Jacobi sweep are
// independent, so lane packing reassociates nothing.
//
// Every function takes a quad count n that the Go wrapper guarantees
// to be a positive multiple of 4; remainders (n mod 4) run in the
// scalar tail on the Go side. Loads are unaligned (VMOVUPD):
// clipped-box bases have no alignment guarantee.

// Coefficients (bit patterns of the constants in kernels.go).
DATA h1c<>+0(SB)/8, $0x3FE0000000000000 // 0.50
GLOBL h1c<>(SB), RODATA|NOPTR, $8
DATA h1e<>+0(SB)/8, $0x3FD0000000000000 // 0.25
GLOBL h1e<>(SB), RODATA|NOPTR, $8
DATA h2c<>+0(SB)/8, $0x3FE0000000000000 // 0.50
GLOBL h2c<>(SB), RODATA|NOPTR, $8
DATA h2e<>+0(SB)/8, $0x3FC0000000000000 // 0.125
GLOBL h2e<>(SB), RODATA|NOPTR, $8
DATA h3c<>+0(SB)/8, $0x3FD999999999999A // 0.40
GLOBL h3c<>(SB), RODATA|NOPTR, $8
DATA h3e<>+0(SB)/8, $0x3FB999999999999A // 0.10
GLOBL h3e<>(SB), RODATA|NOPTR, $8
DATA p5c0<>+0(SB)/8, $0x3FD8000000000000 // 0.375
GLOBL p5c0<>(SB), RODATA|NOPTR, $8
DATA p5c1<>+0(SB)/8, $0x3FD0000000000000 // 0.25
GLOBL p5c1<>(SB), RODATA|NOPTR, $8
DATA p5c2<>+0(SB)/8, $0x3FB0000000000000 // 0.0625
GLOBL p5c2<>(SB), RODATA|NOPTR, $8

// func avx2Heat1D(dst, src *float64, n int)
// dst[i] = h1e*src[i-1] + h1c*src[i] + h1e*src[i+1]
TEXT ·avx2Heat1D(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD h1c<>(SB), Y0
	VBROADCASTSD h1e<>(SB), Y1
	XORQ AX, AX

loop1d:
	VMOVUPD -8(SI)(AX*8), Y2        // w
	VMOVUPD (SI)(AX*8), Y3          // c
	VMOVUPD 8(SI)(AX*8), Y4         // e
	VMULPD  Y1, Y2, Y2              // h1e*w
	VMULPD  Y0, Y3, Y3              // h1c*c
	VADDPD  Y3, Y2, Y2              // h1e*w + h1c*c
	VMULPD  Y1, Y4, Y4              // h1e*e
	VADDPD  Y4, Y2, Y2              // + h1e*e
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop1d
	VZEROUPPER
	RET

// func avx2P1D5(dst, src *float64, n int)
// dst[i] = p5c2*src[i-2] + p5c1*src[i-1] + p5c0*src[i] + p5c1*src[i+1] + p5c2*src[i+2]
TEXT ·avx2P1D5(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD p5c0<>(SB), Y0
	VBROADCASTSD p5c1<>(SB), Y1
	VBROADCASTSD p5c2<>(SB), Y2
	XORQ AX, AX

loop1d5:
	VMOVUPD -16(SI)(AX*8), Y3       // w2
	VMOVUPD -8(SI)(AX*8), Y4        // w1
	VMOVUPD (SI)(AX*8), Y5          // c
	VMOVUPD 8(SI)(AX*8), Y6         // e1
	VMOVUPD 16(SI)(AX*8), Y7        // e2
	VMULPD  Y2, Y3, Y3              // p5c2*w2
	VMULPD  Y1, Y4, Y4              // p5c1*w1
	VADDPD  Y4, Y3, Y3
	VMULPD  Y0, Y5, Y5              // p5c0*c
	VADDPD  Y5, Y3, Y3
	VMULPD  Y1, Y6, Y6              // p5c1*e1
	VADDPD  Y6, Y3, Y3
	VMULPD  Y2, Y7, Y7              // p5c2*e2
	VADDPD  Y7, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop1d5
	VZEROUPPER
	RET

// func avx2Heat2DPair(dst, src *float64, n, sy int)
// Two adjacent rows per call (cross-row register reuse: each row's
// centre vector is the other's north/south neighbour):
//   d0[j] = h2c*c0 + h2e*(((w0+e0)+n0)+c1)
//   d1[j] = h2c*c1 + h2e*(((w1+e1)+c0)+s1)
TEXT ·avx2Heat2DPair(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ sy+24(FP), DX
	SHLQ $3, DX                     // row stride in bytes
	VBROADCASTSD h2c<>(SB), Y0
	VBROADCASTSD h2e<>(SB), Y1
	LEAQ (SI)(DX*1), R8             // src row 1 (c1)
	LEAQ (DI)(DX*1), R9             // dst row 1
	MOVQ SI, R10
	SUBQ DX, R10                    // north of row 0
	LEAQ (SI)(DX*2), R11            // south of row 1
	XORQ AX, AX

loop2d:
	VMOVUPD (SI)(AX*8), Y2          // c0
	VMOVUPD (R8)(AX*8), Y3          // c1
	VMOVUPD -8(SI)(AX*8), Y4        // w0
	VADDPD  8(SI)(AX*8), Y4, Y4     // +e0
	VADDPD  (R10)(AX*8), Y4, Y4     // +n0
	VADDPD  Y3, Y4, Y4              // +c1 (reused as south of row 0)
	VMULPD  Y1, Y4, Y4              // *h2e
	VMULPD  Y0, Y2, Y5              // h2c*c0
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD -8(R8)(AX*8), Y6        // w1
	VADDPD  8(R8)(AX*8), Y6, Y6     // +e1
	VADDPD  Y2, Y6, Y6              // +c0 (reused as north of row 1)
	VADDPD  (R11)(AX*8), Y6, Y6     // +s1
	VMULPD  Y1, Y6, Y6              // *h2e
	VMULPD  Y0, Y3, Y7              // h2c*c1
	VADDPD  Y6, Y7, Y7
	VMOVUPD Y7, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop2d
	VZEROUPPER
	RET

// func avx2Heat2DRow(dst, src *float64, n, sy int)
// Single-row remainder of avx2Heat2DPair:
//   d[j] = h2c*c + h2e*(((w+e)+n)+s)
TEXT ·avx2Heat2DRow(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ sy+24(FP), DX
	SHLQ $3, DX
	VBROADCASTSD h2c<>(SB), Y0
	VBROADCASTSD h2e<>(SB), Y1
	MOVQ SI, R10
	SUBQ DX, R10                    // north
	LEAQ (SI)(DX*1), R11            // south
	XORQ AX, AX

loop2dr:
	VMOVUPD (SI)(AX*8), Y2          // c
	VMOVUPD -8(SI)(AX*8), Y4        // w
	VADDPD  8(SI)(AX*8), Y4, Y4     // +e
	VADDPD  (R10)(AX*8), Y4, Y4     // +n
	VADDPD  (R11)(AX*8), Y4, Y4     // +s
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop2dr
	VZEROUPPER
	RET

// func avx2Heat3DPair(dst, src *float64, n, sy, sx int)
// Two y-adjacent pencils per call, sharing their centre vectors:
//   d0[j] = h3c*c0 + h3e*(((((w0+e0)+n0)+c1)+u0)+v0)
//   d1[j] = h3c*c1 + h3e*(((((w1+e1)+c0)+s1)+u1)+v1)
TEXT ·avx2Heat3DPair(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ sy+24(FP), DX
	MOVQ sx+32(FP), BX
	SHLQ $3, DX                     // y stride in bytes
	SHLQ $3, BX                     // x stride in bytes
	VBROADCASTSD h3c<>(SB), Y0
	VBROADCASTSD h3e<>(SB), Y1
	LEAQ (SI)(DX*1), R8             // c1 pencil
	LEAQ (DI)(DX*1), R9             // dst pencil 1
	MOVQ SI, R10
	SUBQ DX, R10                    // north of pencil 0
	LEAQ (SI)(DX*2), R11            // south of pencil 1
	MOVQ SI, R12
	SUBQ BX, R12                    // x-minus plane, pencil 0
	LEAQ (SI)(BX*1), R13            // x-plus plane, pencil 0
	LEAQ (R12)(DX*1), R14           // x-minus plane, pencil 1
	LEAQ (R13)(DX*1), R15           // x-plus plane, pencil 1
	XORQ AX, AX

loop3d:
	VMOVUPD (SI)(AX*8), Y2          // c0
	VMOVUPD (R8)(AX*8), Y3          // c1
	VMOVUPD -8(SI)(AX*8), Y4        // w0
	VADDPD  8(SI)(AX*8), Y4, Y4     // +e0
	VADDPD  (R10)(AX*8), Y4, Y4     // +n0
	VADDPD  Y3, Y4, Y4              // +c1
	VADDPD  (R12)(AX*8), Y4, Y4     // +u0
	VADDPD  (R13)(AX*8), Y4, Y4     // +v0
	VMULPD  Y1, Y4, Y4              // *h3e
	VMULPD  Y0, Y2, Y5              // h3c*c0
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD -8(R8)(AX*8), Y6        // w1
	VADDPD  8(R8)(AX*8), Y6, Y6     // +e1
	VADDPD  Y2, Y6, Y6              // +c0
	VADDPD  (R11)(AX*8), Y6, Y6     // +s1
	VADDPD  (R14)(AX*8), Y6, Y6     // +u1
	VADDPD  (R15)(AX*8), Y6, Y6     // +v1
	VMULPD  Y1, Y6, Y6              // *h3e
	VMULPD  Y0, Y3, Y7              // h3c*c1
	VADDPD  Y6, Y7, Y7
	VMOVUPD Y7, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop3d
	VZEROUPPER
	RET

// func avx2Heat3DRow(dst, src *float64, n, sy, sx int)
// Single-pencil remainder of avx2Heat3DPair:
//   d[j] = h3c*c + h3e*(((((w+e)+n)+s)+u)+v)
TEXT ·avx2Heat3DRow(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ sy+24(FP), DX
	MOVQ sx+32(FP), BX
	SHLQ $3, DX
	SHLQ $3, BX
	VBROADCASTSD h3c<>(SB), Y0
	VBROADCASTSD h3e<>(SB), Y1
	MOVQ SI, R10
	SUBQ DX, R10                    // north
	LEAQ (SI)(DX*1), R11            // south
	MOVQ SI, R12
	SUBQ BX, R12                    // x-minus
	LEAQ (SI)(BX*1), R13            // x-plus
	XORQ AX, AX

loop3dr:
	VMOVUPD (SI)(AX*8), Y2          // c
	VMOVUPD -8(SI)(AX*8), Y4        // w
	VADDPD  8(SI)(AX*8), Y4, Y4     // +e
	VADDPD  (R10)(AX*8), Y4, Y4     // +n
	VADDPD  (R11)(AX*8), Y4, Y4     // +s
	VADDPD  (R12)(AX*8), Y4, Y4     // +u
	VADDPD  (R13)(AX*8), Y4, Y4     // +v
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop3dr
	VZEROUPPER
	RET

// func avx2Blend(dst, a, b *float64, ca, cb float64, n int)
// dst[i] = ca*a[i] + cb*b[i] for i in [0, n), n >= 4: two products and
// one sum, each rounded, in BlendRow's scalar order. Eight points per
// iteration, then one quad if n mod 8 >= 4, then the n mod 4 tail one
// lane at a time (VMULSD/VADDSD: the same rounded operations). Both
// inputs of a point are loaded before its store, so dst may alias a or
// b exactly (the PrevState blend).
TEXT ·avx2Blend(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	VBROADCASTSD ca+24(FP), Y0
	VBROADCASTSD cb+32(FP), Y1
	MOVQ n+40(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX                    // points covered by the 8-wide loop
	JZ   quadblend

loopblend:
	VMOVUPD (SI)(AX*8), Y2          // a[0:4]
	VMOVUPD 32(SI)(AX*8), Y4        // a[4:8]
	VMOVUPD (DX)(AX*8), Y3          // b[0:4]
	VMOVUPD 32(DX)(AX*8), Y5        // b[4:8]
	VMULPD  Y0, Y2, Y2              // ca*a
	VMULPD  Y0, Y4, Y4
	VMULPD  Y1, Y3, Y3              // cb*b
	VMULPD  Y1, Y5, Y5
	VADDPD  Y3, Y2, Y2              // ca*a + cb*b
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     loopblend

quadblend:
	MOVQ    CX, BX
	SUBQ    AX, BX
	CMPQ    BX, $4
	JLT     tailblend
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DX)(AX*8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y1, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

tailblend:
	CMPQ    AX, CX
	JGE     doneblend
	VMOVSD  (SI)(AX*8), X2
	VMOVSD  (DX)(AX*8), X3
	VMULSD  X0, X2, X2
	VMULSD  X1, X3, X3
	VADDSD  X3, X2, X2
	VMOVSD  X2, (DI)(AX*8)
	INCQ    AX
	JMP     tailblend

doneblend:
	VZEROUPPER
	RET
