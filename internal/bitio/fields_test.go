package bitio

import (
	"bytes"
	"fmt"
	"testing"
)

// WriteUint and ReadUint move a field up to a byte at a time. The
// references below move it one bit at a time, as WriteBit and ReadBit do.

// writeUintBits writes the low width bits of v, most significant first.
func writeUintBits(w *Writer, v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>uint(i)) & 1)
	}
}

// readUintBits reads a width-bit field, failing as ReadUint does.
func readUintBits(r *Reader, width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrShortRead
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, _ := r.ReadBit()
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// bitAt returns bit i of data, most significant first, or 0 past its end.
func bitAt(data []byte, i int) uint {
	if i >= 8*len(data) {
		return 0
	}
	return uint(data[i/8]>>(7-uint(i%8))) & 1
}

// panicOf returns what f panics with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// FuzzUintMatchesBits checks WriteUint and ReadUint against the bit-by-bit
// references at every width 0–64 and every starting bit offset up to two
// bytes in: the bytes and bit count written, the panic for a value wider
// than its field, and the value, error and position after a read over the
// fuzzed bytes, of which cut trailing bits are out of bounds.
func FuzzUintMatchesBits(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(0))
	f.Add([]byte{0xa5, 0x3c, 0xff, 0x00, 0x81, 0x7e, 0x42, 0x99, 0x10, 0xee}, uint64(0xdeadbeefcafef00d), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, ^uint64(0), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, v uint64, cut uint8) {
		nbit := max(0, 8*len(data)-int(cut%16))
		for off := 0; off <= 16; off++ {
			for width := 0; width <= 64; width++ {
				var got, want Writer
				for i := 0; i < off; i++ {
					got.WriteBit(bitAt(data, i))
					want.WriteBit(bitAt(data, i))
				}
				var probe Writer
				wantPanic := width < 64 && v>>uint(width) != 0
				if p := panicOf(func() { probe.WriteUint(v, width) }); (p != nil) != wantPanic {
					t.Fatalf("off %d width %d: WriteUint(%#x) panics with %v, want a panic: %v", off, width, v, p, wantPanic)
				}
				x := v
				if width < 64 {
					x &= 1<<uint(width) - 1
				}
				got.WriteUint(x, width)
				writeUintBits(&want, x, width)
				got.WriteBit(1)
				want.WriteBit(1)
				if got.Bits() != want.Bits() || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("off %d width %d: WriteUint(%#x) wrote %d bits %x, bit by bit %d bits %x",
						off, width, x, got.Bits(), got.Bytes(), want.Bits(), want.Bytes())
				}

				rGot, rWant := NewReader(data, nbit), NewReader(data, nbit)
				for i := 0; i < off; i++ {
					rGot.ReadBit()
					rWant.ReadBit()
				}
				gv, gerr := rGot.ReadUint(width)
				wv, werr := readUintBits(rWant, width)
				if gv != wv || gerr != werr || rGot.Remaining() != rWant.Remaining() {
					t.Fatalf("off %d width %d over %d bits: ReadUint = %#x, %v (%d left), bit by bit %#x, %v (%d left)",
						off, width, nbit, gv, gerr, rGot.Remaining(), wv, werr, rWant.Remaining())
				}
			}
		}
	})
}
