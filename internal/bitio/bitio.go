// Package bitio provides bit-exact encoding and decoding of whiteboard
// messages.
//
// The resource the paper charges for is the number of bits each node writes
// on the whiteboard, so messages must be measured at bit granularity rather
// than byte granularity. A Writer packs fields most-significant-bit first
// into a byte slice and reports the exact bit count; a Reader consumes the
// same fields back. Fixed-width fields are used where the width is known to
// both sides (e.g. ⌈log₂(n+1)⌉ bits for an identifier in 1..n), and a
// self-delimiting unsigned varint is available for values whose magnitude is
// data dependent (e.g. power sums bounded by n^(k+1)).
package bitio

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// ErrShortRead reports an attempt to read past the end of the encoded data.
var ErrShortRead = errors.New("bitio: read past end of data")

// Width returns the number of bits required to store values in [0, max],
// i.e. the width callers should use for a fixed-width field whose largest
// possible value is max. Width(0) == 1 so that a field is never zero bits.
func Width(max uint64) int {
	if max == 0 {
		return 1
	}
	return bits.Len64(max)
}

// WidthID returns the fixed field width used for node identifiers in 1..n.
func WidthID(n int) int {
	if n < 1 {
		return 1
	}
	return Width(uint64(n))
}

// Writer accumulates bits most-significant-bit first.
//
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int
}

// Bits returns the number of bits written so far.
func (w *Writer) Bits() int { return w.nbit }

// Bytes returns the packed bytes; the final byte is zero padded.
// The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteUint appends the low `width` bits of v, most significant first.
// It panics if v does not fit in width bits, because that is always a
// protocol encoding bug rather than a runtime condition.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	// Each step fills the rest of the current byte, or as much of it as
	// the field has left.
	for width > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		k := min(free, width)
		width -= k
		w.buf[w.nbit/8] |= byte(v>>uint(width)&(1<<uint(k)-1)) << uint(free-k)
		w.nbit += k
	}
}

// WriteBool appends one bit: 1 for true, 0 for false.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteUvarint appends v using a self-delimiting group-of-4 code: each group
// is a continuation bit followed by 4 payload bits, least significant group
// first. Cost: 5·⌈max(len(v),1)/4⌉ bits, i.e. (5/4)·log₂ v + O(1).
func (w *Writer) WriteUvarint(v uint64) {
	for {
		payload := v & 0xF
		v >>= 4
		if v != 0 {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
		w.WriteUint(payload, 4)
		if v == 0 {
			return
		}
	}
}

// WriteBig appends an arbitrary-precision non-negative integer as a varint
// bit length followed by that many magnitude bits (most significant first).
// It panics on negative input.
func (w *Writer) WriteBig(v *big.Int) {
	if v.Sign() < 0 {
		panic("bitio: WriteBig of negative value")
	}
	n := v.BitLen()
	w.WriteUvarint(uint64(n))
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(v.Bit(i))
	}
}

// Reader consumes bits written by a Writer.
type Reader struct {
	buf  []byte
	pos  int // bit position
	nbit int // total valid bits
}

// NewReader returns a Reader over nbit bits of buf.
func NewReader(buf []byte, nbit int) *Reader {
	return &Reader{buf: buf, nbit: nbit}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrShortRead
	}
	b := uint(r.buf[r.pos/8]>>(7-uint(r.pos%8))) & 1
	r.pos++
	return b, nil
}

// ReadUint consumes a fixed-width unsigned field.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrShortRead
	}
	// Each step takes the rest of the current byte, or as much of it as
	// the field has left.
	var v uint64
	for width > 0 {
		off := r.pos % 8
		k := min(8-off, width)
		v = v<<uint(k) | uint64(r.buf[r.pos/8]<<uint(off)>>uint(8-k))
		r.pos += k
		width -= k
	}
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// ReadUvarint consumes a varint written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	shift := uint(0)
	for {
		cont, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		payload, err := r.ReadUint(4)
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, errors.New("bitio: uvarint overflows 64 bits")
		}
		v |= payload << shift
		shift += 4
		if cont == 0 {
			return v, nil
		}
	}
}

// ReadBig consumes a big integer written by WriteBig.
func (r *Reader) ReadBig() (*big.Int, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, ErrShortRead
	}
	v := new(big.Int)
	for i := 0; i < int(n); i++ {
		b, _ := r.ReadBit()
		v.Lsh(v, 1)
		if b != 0 {
			v.SetBit(v, 0, 1)
		}
	}
	return v, nil
}
