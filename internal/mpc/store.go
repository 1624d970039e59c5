package mpc

import (
	"encoding/binary"
	"math"

	"mpcspanner/internal/extmem"
)

// tupleCodec is the on-disk record format of a spilled Tuple: 20
// little-endian bytes, field for field. A pure function of the tuple, so
// spill round-trips are exact (weights travel as IEEE-754 bit patterns).
var tupleCodec = extmem.Codec[Tuple]{
	Size: 20,
	Encode: func(dst []byte, t *Tuple) {
		binary.LittleEndian.PutUint32(dst[0:], uint32(t.Src))
		binary.LittleEndian.PutUint32(dst[4:], uint32(t.Dst))
		binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(t.W))
		binary.LittleEndian.PutUint32(dst[16:], uint32(t.Orig))
	},
	Decode: func(src []byte, t *Tuple) {
		t.Src = int32(binary.LittleEndian.Uint32(src[0:]))
		t.Dst = int32(binary.LittleEndian.Uint32(src[4:]))
		t.W = math.Float64frombits(binary.LittleEndian.Uint64(src[8:]))
		t.Orig = int32(binary.LittleEndian.Uint32(src[16:]))
	},
}
