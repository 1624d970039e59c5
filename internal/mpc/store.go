package mpc

import (
	"encoding/binary"
	"math"

	"mpcspanner/internal/extmem"
)

// tupleCodec is the on-disk record format of a spilled Tuple: 28
// little-endian bytes, field for field. A pure function of the tuple, so
// spill round-trips are exact (weights travel as IEEE-754 bit patterns).
var tupleCodec = extmem.Codec[Tuple]{
	Size: 28,
	Encode: func(dst []byte, t *Tuple) {
		binary.LittleEndian.PutUint32(dst[0:], uint32(t.Src))
		binary.LittleEndian.PutUint32(dst[4:], uint32(t.Dst))
		binary.LittleEndian.PutUint32(dst[8:], uint32(t.CSrc))
		binary.LittleEndian.PutUint32(dst[12:], uint32(t.CDst))
		binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(t.W))
		binary.LittleEndian.PutUint32(dst[24:], uint32(t.Orig))
	},
	Decode: func(src []byte, t *Tuple) {
		t.Src = int32(binary.LittleEndian.Uint32(src[0:]))
		t.Dst = int32(binary.LittleEndian.Uint32(src[4:]))
		t.CSrc = int32(binary.LittleEndian.Uint32(src[8:]))
		t.CDst = int32(binary.LittleEndian.Uint32(src[12:]))
		t.W = math.Float64frombits(binary.LittleEndian.Uint64(src[16:]))
		t.Orig = int32(binary.LittleEndian.Uint32(src[24:]))
	},
}
