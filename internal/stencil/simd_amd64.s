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
// Each stencil routine updates a whole clipped box in one call: the
// plane, row-pair and odd-row loops run here, so a block visit pays
// one Go→assembly transition. Every row or pencil runs its full quads
// with unaligned loads and stores (VMOVUPD: clipped-box bases have no
// alignment guarantee), then its final partial quad, if any, as one
// VMASKMOVPD-masked quad whose mask is tailmask row n&3. Masked-off
// lanes neither load (so they cannot fault past the halo) nor store
// (so nothing outside the box is written), and the active lanes run
// the full quad's expression in the same order, so any width ≥ 1 is
// bitwise identical to the scalar kernel with no scalar tail at all.
// Extents must be positive; the Go wrappers check that.

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

// tailmask row r (the 32 bytes at offset 32*r) sets the sign bit of
// its first r lanes: the VMASKMOVPD mask of a final partial quad of r
// points. Row 0 is never used.
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $-1
DATA tailmask<>+72(SB)/8, $-1
DATA tailmask<>+96(SB)/8, $-1
DATA tailmask<>+104(SB)/8, $-1
DATA tailmask<>+112(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// LOADMASK scales AX, the width of a final partial quad, to its
// tailmask row offset (still zero iff there is no partial quad) and
// sets Y8 to that row, clobbering CX.
#define LOADMASK \
	SHLQ    $5, AX; \
	LEAQ    tailmask<>(SB), CX; \
	VMOVUPD (CX)(AX*1), Y8

// HEAT1D sets Y2 = h1e*w + h1c*c + h1e*e from w, c, e in Y2, Y3, Y4.
#define HEAT1D \
	VMULPD Y1, Y2, Y2; \
	VMULPD Y0, Y3, Y3; \
	VADDPD Y3, Y2, Y2; \
	VMULPD Y1, Y4, Y4; \
	VADDPD Y4, Y2, Y2

// func avx2Heat1D(dst, src *float64, n int)
// dst[i] = h1e*src[i-1] + h1c*src[i] + h1e*src[i+1] for i in [0, n)
TEXT ·avx2Heat1D(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	SUBQ SI, DI                     // dst - src: stores go to (SI)(DI*1)
	MOVQ n+16(FP), AX
	VBROADCASTSD h1c<>(SB), Y0
	VBROADCASTSD h1e<>(SB), Y1
	MOVQ AX, DX
	SHRQ $2, DX                     // full quads
	ANDQ $3, AX                     // points in the final partial quad
	TESTQ DX, DX
	JZ   tail1d

loop1d:
	VMOVUPD -8(SI), Y2              // w
	VMOVUPD (SI), Y3                // c
	VMOVUPD 8(SI), Y4               // e
	HEAT1D
	VMOVUPD Y2, (SI)(DI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     loop1d

tail1d:
	TESTQ   AX, AX
	JZ      done1d
	LOADMASK
	VMASKMOVPD -8(SI), Y8, Y2
	VMASKMOVPD (SI), Y8, Y3
	VMASKMOVPD 8(SI), Y8, Y4
	HEAT1D
	VMASKMOVPD Y2, Y8, (SI)(DI*1)

done1d:
	VZEROUPPER
	RET

// P1D5 sets Y3 = p5c2*w2 + p5c1*w1 + p5c0*c + p5c1*e1 + p5c2*e2 from
// w2, w1, c, e1, e2 in Y3..Y7.
#define P1D5 \
	VMULPD Y2, Y3, Y3; \
	VMULPD Y1, Y4, Y4; \
	VADDPD Y4, Y3, Y3; \
	VMULPD Y0, Y5, Y5; \
	VADDPD Y5, Y3, Y3; \
	VMULPD Y1, Y6, Y6; \
	VADDPD Y6, Y3, Y3; \
	VMULPD Y2, Y7, Y7; \
	VADDPD Y7, Y3, Y3

// func avx2P1D5(dst, src *float64, n int)
// dst[i] = p5c2*src[i-2] + p5c1*src[i-1] + p5c0*src[i] + p5c1*src[i+1] + p5c2*src[i+2]
TEXT ·avx2P1D5(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	SUBQ SI, DI                     // dst - src: stores go to (SI)(DI*1)
	MOVQ n+16(FP), AX
	VBROADCASTSD p5c0<>(SB), Y0
	VBROADCASTSD p5c1<>(SB), Y1
	VBROADCASTSD p5c2<>(SB), Y2
	MOVQ AX, DX
	SHRQ $2, DX
	ANDQ $3, AX
	TESTQ DX, DX
	JZ   tail1d5

loop1d5:
	VMOVUPD -16(SI), Y3             // w2
	VMOVUPD -8(SI), Y4              // w1
	VMOVUPD (SI), Y5                // c
	VMOVUPD 8(SI), Y6               // e1
	VMOVUPD 16(SI), Y7              // e2
	P1D5
	VMOVUPD Y3, (SI)(DI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     loop1d5

tail1d5:
	TESTQ   AX, AX
	JZ      done1d5
	LOADMASK
	VMASKMOVPD -16(SI), Y8, Y3
	VMASKMOVPD -8(SI), Y8, Y4
	VMASKMOVPD (SI), Y8, Y5
	VMASKMOVPD 8(SI), Y8, Y6
	VMASKMOVPD 16(SI), Y8, Y7
	P1D5
	VMASKMOVPD Y3, Y8, (SI)(DI*1)

done1d5:
	VZEROUPPER
	RET

// func avx2Heat2D(dst, src *float64, nx, ny, sy int)
// The nx×ny box at dst/src, rows sy apart and y-contiguous. Rows go
// in pairs, each row's centre vector serving as the other's north or
// south neighbour:
//   d0[j] = h2c*c0 + h2e*(((w0+e0)+n0)+c1)
//   d1[j] = h2c*c1 + h2e*(((w1+e1)+c0)+s1)
// and an odd last row alone:
//   d[j] = h2c*c + h2e*(((w+e)+n)+s)
// R8 holds the src start of the current row (pair) and SI the current
// quad, whose stores go to (SI)(DI*1) and (SI)(R9*1): DI is dst - src
// and R9 dst - src + sy. CX is the end of the row's full quads, DX sy
// and R10 -sy in bytes, R11 the row pairs left, AX the final partial
// quad's width (LOADMASK-scaled) and Y8 its mask.
TEXT ·avx2Heat2D(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R8
	SUBQ R8, DI                     // dst - src
	MOVQ sy+32(FP), DX
	SHLQ $3, DX
	LEAQ (DI)(DX*1), R9             // dst - src + sy: row 1's stores
	MOVQ DX, R10
	NEGQ R10
	VBROADCASTSD h2c<>(SB), Y0
	VBROADCASTSD h2e<>(SB), Y1
	MOVQ ny+24(FP), AX
	ANDQ $3, AX
	LOADMASK
	MOVQ nx+16(FP), R11
	SHRQ $1, R11
	JZ   odd2d

pair2d:
	MOVQ R8, SI
	MOVQ ny+24(FP), CX
	ANDQ $-4, CX
	LEAQ (SI)(CX*8), CX
	CMPQ SI, CX
	JEQ  pairtail2d

pairquad2d:
	VMOVUPD (SI), Y2                // c0
	VMOVUPD (SI)(DX*1), Y3          // c1
	VMOVUPD -8(SI), Y4              // w0
	VADDPD  8(SI), Y4, Y4           // +e0
	VADDPD  (SI)(R10*1), Y4, Y4     // +n0
	VADDPD  Y3, Y4, Y4              // +c1 (reused as south of row 0)
	VMULPD  Y1, Y4, Y4              // *h2e
	VMULPD  Y0, Y2, Y5              // h2c*c0
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)(DI*1)
	VMOVUPD -8(SI)(DX*1), Y6        // w1
	VADDPD  8(SI)(DX*1), Y6, Y6     // +e1
	VADDPD  Y2, Y6, Y6              // +c0 (reused as north of row 1)
	VADDPD  (SI)(DX*2), Y6, Y6      // +s1
	VMULPD  Y1, Y6, Y6              // *h2e
	VMULPD  Y0, Y3, Y7              // h2c*c1
	VADDPD  Y6, Y7, Y7
	VMOVUPD Y7, (SI)(R9*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JNE     pairquad2d

pairtail2d:
	TESTQ   AX, AX
	JZ      nextpair2d
	VMASKMOVPD (SI), Y8, Y2         // c0
	VMASKMOVPD (SI)(DX*1), Y8, Y3   // c1
	VMASKMOVPD -8(SI), Y8, Y4       // w0
	VMASKMOVPD 8(SI), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +e0
	VMASKMOVPD (SI)(R10*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +n0
	VADDPD  Y3, Y4, Y4              // +c1
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMASKMOVPD Y5, Y8, (SI)(DI*1)
	VMASKMOVPD -8(SI)(DX*1), Y8, Y6 // w1
	VMASKMOVPD 8(SI)(DX*1), Y8, Y4
	VADDPD  Y4, Y6, Y6              // +e1
	VADDPD  Y2, Y6, Y6              // +c0
	VMASKMOVPD (SI)(DX*2), Y8, Y4
	VADDPD  Y4, Y6, Y6              // +s1
	VMULPD  Y1, Y6, Y6
	VMULPD  Y0, Y3, Y7
	VADDPD  Y6, Y7, Y7
	VMASKMOVPD Y7, Y8, (SI)(R9*1)

nextpair2d:
	LEAQ (R8)(DX*2), R8
	DECQ R11
	JNZ  pair2d

odd2d:
	MOVQ  nx+16(FP), CX
	TESTQ $1, CX
	JZ    done2d
	MOVQ  R8, SI
	MOVQ  ny+24(FP), CX
	ANDQ  $-4, CX
	LEAQ  (SI)(CX*8), CX
	CMPQ  SI, CX
	JEQ   rowtail2d

rowquad2d:
	VMOVUPD (SI), Y2                // c
	VMOVUPD -8(SI), Y4              // w
	VADDPD  8(SI), Y4, Y4           // +e
	VADDPD  (SI)(R10*1), Y4, Y4     // +n
	VADDPD  (SI)(DX*1), Y4, Y4      // +s
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)(DI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JNE     rowquad2d

rowtail2d:
	TESTQ   AX, AX
	JZ      done2d
	VMASKMOVPD (SI), Y8, Y2         // c
	VMASKMOVPD -8(SI), Y8, Y4       // w
	VMASKMOVPD 8(SI), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +e
	VMASKMOVPD (SI)(R10*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +n
	VMASKMOVPD (SI)(DX*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +s
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMASKMOVPD Y5, Y8, (SI)(DI*1)

done2d:
	VZEROUPPER
	RET

// func avx2Heat3D(dst, src *float64, nx, ny, nz, sy, sx int)
// The nx×ny×nz box at dst/src: planes sx apart, pencils sy apart,
// z-contiguous. Each plane pairs its pencils, sharing their centre
// vectors:
//   d0[j] = h3c*c0 + h3e*(((((w0+e0)+n0)+c1)+u0)+v0)
//   d1[j] = h3c*c1 + h3e*(((((w1+e1)+c0)+s1)+u1)+v1)
// and ends an odd plane with one pencil alone:
//   d[j] = h3c*c + h3e*(((((w+e)+n)+s)+u)+v)
// Registers as in avx2Heat2D, plus BX sx, R12 -sx, R13 sy-sx and R14
// sy+sx in bytes (the x-minus/x-plus neighbours of both pencils) and
// R15 the planes left.
TEXT ·avx2Heat3D(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R8
	SUBQ R8, DI                     // dst - src
	MOVQ sy+40(FP), DX
	MOVQ sx+48(FP), BX
	SHLQ $3, DX
	SHLQ $3, BX
	LEAQ (DI)(DX*1), R9             // dst - src + sy: pencil 1's stores
	VBROADCASTSD h3c<>(SB), Y0
	VBROADCASTSD h3e<>(SB), Y1
	MOVQ nz+32(FP), AX
	ANDQ $3, AX
	LOADMASK
	MOVQ DX, R10
	NEGQ R10                        // -sy: north
	MOVQ BX, R12
	NEGQ R12                        // -sx: x-minus
	MOVQ DX, R13
	SUBQ BX, R13                    // sy-sx: x-minus of pencil 1
	LEAQ (DX)(BX*1), R14            // sy+sx: x-plus of pencil 1
	MOVQ nx+16(FP), R15

plane3d:
	MOVQ ny+24(FP), R11
	SHRQ $1, R11
	JZ   odd3d

pair3d:
	MOVQ R8, SI
	MOVQ nz+32(FP), CX
	ANDQ $-4, CX
	LEAQ (SI)(CX*8), CX
	CMPQ SI, CX
	JEQ  pairtail3d

pairquad3d:
	VMOVUPD (SI), Y2                // c0
	VMOVUPD (SI)(DX*1), Y3          // c1
	VMOVUPD -8(SI), Y4              // w0
	VADDPD  8(SI), Y4, Y4           // +e0
	VADDPD  (SI)(R10*1), Y4, Y4     // +n0
	VADDPD  Y3, Y4, Y4              // +c1
	VADDPD  (SI)(R12*1), Y4, Y4     // +u0
	VADDPD  (SI)(BX*1), Y4, Y4      // +v0
	VMULPD  Y1, Y4, Y4              // *h3e
	VMULPD  Y0, Y2, Y5              // h3c*c0
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)(DI*1)
	VMOVUPD -8(SI)(DX*1), Y6        // w1
	VADDPD  8(SI)(DX*1), Y6, Y6     // +e1
	VADDPD  Y2, Y6, Y6              // +c0
	VADDPD  (SI)(DX*2), Y6, Y6      // +s1
	VADDPD  (SI)(R13*1), Y6, Y6     // +u1
	VADDPD  (SI)(R14*1), Y6, Y6     // +v1
	VMULPD  Y1, Y6, Y6              // *h3e
	VMULPD  Y0, Y3, Y7              // h3c*c1
	VADDPD  Y6, Y7, Y7
	VMOVUPD Y7, (SI)(R9*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JNE     pairquad3d

pairtail3d:
	TESTQ   AX, AX
	JZ      nextpair3d
	VMASKMOVPD (SI), Y8, Y2         // c0
	VMASKMOVPD (SI)(DX*1), Y8, Y3   // c1
	VMASKMOVPD -8(SI), Y8, Y4       // w0
	VMASKMOVPD 8(SI), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +e0
	VMASKMOVPD (SI)(R10*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +n0
	VADDPD  Y3, Y4, Y4              // +c1
	VMASKMOVPD (SI)(R12*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +u0
	VMASKMOVPD (SI)(BX*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +v0
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMASKMOVPD Y5, Y8, (SI)(DI*1)
	VMASKMOVPD -8(SI)(DX*1), Y8, Y6 // w1
	VMASKMOVPD 8(SI)(DX*1), Y8, Y4
	VADDPD  Y4, Y6, Y6              // +e1
	VADDPD  Y2, Y6, Y6              // +c0
	VMASKMOVPD (SI)(DX*2), Y8, Y4
	VADDPD  Y4, Y6, Y6              // +s1
	VMASKMOVPD (SI)(R13*1), Y8, Y4
	VADDPD  Y4, Y6, Y6              // +u1
	VMASKMOVPD (SI)(R14*1), Y8, Y4
	VADDPD  Y4, Y6, Y6              // +v1
	VMULPD  Y1, Y6, Y6
	VMULPD  Y0, Y3, Y7
	VADDPD  Y6, Y7, Y7
	VMASKMOVPD Y7, Y8, (SI)(R9*1)

nextpair3d:
	LEAQ (R8)(DX*2), R8
	DECQ R11
	JNZ  pair3d

odd3d:
	MOVQ  ny+24(FP), CX
	TESTQ $1, CX
	JZ    nextplane3d
	MOVQ  R8, SI
	MOVQ  nz+32(FP), CX
	ANDQ  $-4, CX
	LEAQ  (SI)(CX*8), CX
	CMPQ  SI, CX
	JEQ   pencil3dtail

pencilquad3d:
	VMOVUPD (SI), Y2                // c
	VMOVUPD -8(SI), Y4              // w
	VADDPD  8(SI), Y4, Y4           // +e
	VADDPD  (SI)(R10*1), Y4, Y4     // +n
	VADDPD  (SI)(DX*1), Y4, Y4      // +s
	VADDPD  (SI)(R12*1), Y4, Y4     // +u
	VADDPD  (SI)(BX*1), Y4, Y4      // +v
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)(DI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JNE     pencilquad3d

pencil3dtail:
	TESTQ   AX, AX
	JZ      nextplane3d
	VMASKMOVPD (SI), Y8, Y2         // c
	VMASKMOVPD -8(SI), Y8, Y4       // w
	VMASKMOVPD 8(SI), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +e
	VMASKMOVPD (SI)(R10*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +n
	VMASKMOVPD (SI)(DX*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +s
	VMASKMOVPD (SI)(R12*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +u
	VMASKMOVPD (SI)(BX*1), Y8, Y5
	VADDPD  Y5, Y4, Y4              // +v
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y4, Y5, Y5
	VMASKMOVPD Y5, Y8, (SI)(DI*1)

nextplane3d:
	// The pairs moved R8 on by (ny&^1)*sy; step back and one plane on.
	MOVQ  ny+24(FP), CX
	ANDQ  $-2, CX
	IMULQ DX, CX
	SUBQ  CX, R8
	ADDQ  BX, R8
	DECQ  R15
	JNZ   plane3d
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
