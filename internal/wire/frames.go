package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ff"
)

// Whole-frame append encoders for the hot request/response path. Each
// builds header + payload in place on dst — typically a pooled Buf — and
// packs the element vector directly into the frame with
// ff.AppendPackBits, so encoding a request or reply performs zero
// allocations and zero intermediate copies. The resulting bytes are
// identical to WriteFrame(t, m.AppendPayload(nil)) with m.Packed =
// PackVec(v).

// Message is any wire message that can append its payload encoding.
type Message interface{ AppendPayload([]byte) []byte }

// AppendMessageFrame appends a complete frame for m to dst without an
// intermediate payload allocation.
func AppendMessageFrame(dst []byte, t Type, m Message) ([]byte, error) {
	if t == 0 || t > maxType {
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
	off := len(dst)
	dst = appendHeader(dst, t)
	dst = m.AppendPayload(dst)
	return patchLen(dst, off)
}

// appendVecTail appends the shared (count, bits, packed) tail of a
// vector message, packing v in place.
func appendVecTail(dst []byte, v ff.Vec, bits uint8) ([]byte, error) {
	if len(v) > MaxVecElems {
		return nil, fmt.Errorf("%w: %d elements (max %d)", ErrBadMessage, len(v), MaxVecElems)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	dst = append(dst, bits)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ff.PackedSize(len(v), uint(bits))))
	return ff.AppendPackBits(dst, v, uint(bits))
}

// AppendEncryptFrame appends a complete TypeEncrypt frame carrying v
// packed at the given width.
func AppendEncryptFrame(dst []byte, session uint32, id, counter, nonce uint64, v ff.Vec, bits uint8) ([]byte, error) {
	off := len(dst)
	dst = appendHeader(dst, TypeEncrypt)
	dst = binary.LittleEndian.AppendUint32(dst, session)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, counter)
	dst = binary.LittleEndian.AppendUint64(dst, nonce)
	dst, err := appendVecTail(dst, v, bits)
	if err != nil {
		return nil, err
	}
	return patchLen(dst, off)
}

// AppendStreamFrame appends a complete TypeStream frame carrying v
// packed at the given width.
func AppendStreamFrame(dst []byte, session uint32, id, counter uint64, v ff.Vec, bits uint8) ([]byte, error) {
	off := len(dst)
	dst = appendHeader(dst, TypeStream)
	dst = binary.LittleEndian.AppendUint32(dst, session)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, counter)
	dst, err := appendVecTail(dst, v, bits)
	if err != nil {
		return nil, err
	}
	return patchLen(dst, off)
}

// AppendDataFrame appends a complete TypeData frame carrying v packed
// at the given width.
func AppendDataFrame(dst []byte, session uint32, id, offset uint64, v ff.Vec, bits uint8) ([]byte, error) {
	off := len(dst)
	dst = appendHeader(dst, TypeData)
	dst = binary.LittleEndian.AppendUint32(dst, session)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, offset)
	dst, err := appendVecTail(dst, v, bits)
	if err != nil {
		return nil, err
	}
	return patchLen(dst, off)
}
