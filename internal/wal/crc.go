package wal

import "hash/crc32"

// crc.go holds the record checksum's arithmetic: Checksum is the CRC32C every
// record carries, and ChecksumCombine joins two checksums without the bytes,
// so a payload the caller has already summed is never read again to frame
// its record (see AppendVSum).

// Checksum returns the CRC32C (Castagnoli) of p, the sum AppendVSum and
// AppendVSpec.Sum expect for a payload.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// ChecksumCombine returns Checksum(a‖b) given crcA = Checksum(a),
// crcB = Checksum(b) and lenB = len(b), which must be below 1<<32 — zlib's
// crc32_combine for the Castagnoli polynomial. Appending lenB bytes
// multiplies a's remainder by x^(8·lenB) mod P before b's sum is added; that
// power is the product of one combineTab entry per non-zero byte of lenB, so
// a combine costs at most four 32-step multiplies whatever the length.
func ChecksumCombine(crcA, crcB uint32, lenB int) uint32 {
	for k := 0; lenB != 0; k++ {
		if v := lenB & 0xff; v != 0 {
			crcA = gfMul(combineTab[k][v], crcA)
		}
		lenB >>= 8
	}
	return crcA ^ crcB
}

// castagnoliRev is the Castagnoli polynomial in the bit-reflected form
// hash/crc32 computes in: bit 31 holds x^0 and bit 0 holds x^31.
const castagnoliRev = 0x82f63b78

// gfMul multiplies two bit-reflected polynomials modulo the Castagnoli
// polynomial. It is branchless: every step adds b when a's current
// coefficient is set and advances b by one power of x, reducing by the
// polynomial when the x^31 coefficient carries out.
func gfMul(a, b uint32) uint32 {
	var p uint32
	for range 32 {
		p ^= b & -(a >> 31)
		a <<= 1
		b = b>>1 ^ castagnoliRev&-(b&1)
	}
	return p
}

// combineTab[k][v] is x^(8·v·256^k) mod P, bit-reflected: the shift of
// appending v·256^k bytes.
var combineTab = func() (t [4][256]uint32) {
	one, x := uint32(1)<<31, uint32(1)<<30
	step := gfMul(gfMul(x, x), gfMul(x, x))
	step = gfMul(step, step) // x^8: one byte
	for k := range t {
		t[k][0] = one
		for v := 1; v < 256; v++ {
			t[k][v] = gfMul(t[k][v-1], step)
		}
		step = gfMul(t[k][255], step) // x^(8·256^(k+1))
	}
	return t
}()
