package extmem

// Run files are the on-disk unit of a spilled store: a fixed 32-byte header
// followed by a flat array of fixed-size records. They borrow the artifact
// container's discipline — CRC-32C over header and payload, atomic
// temp+fsync+rename creation via artifact.CreateAtomic — without its
// section machinery: a run is a single homogeneous stream, written once and
// read front to back.
//
// Header layout (little-endian):
//
//	[0:8)   magic "EXTMRUN\x01"
//	[8:12)  format version (currently 1)
//	[12:16) record size in bytes
//	[16:24) record count
//	[24:28) CRC-32C of the payload
//	[28:32) CRC-32C of bytes [0:28)

import (
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"mpcspanner/internal/artifact"
	"mpcspanner/internal/core"
)

const (
	runVersion    = 1
	runHeaderSize = 32
)

var runMagic = [8]byte{'E', 'X', 'T', 'M', 'R', 'U', 'N', 1}

// runFile is one spilled run on disk. The concatenation of a store's runs,
// in slice order, is the store's logical contents.
type runFile struct {
	path  string
	count int
}

// runWriter streams records into a staged run file, back-patching the
// header once the count and payload checksum are known.
type runWriter[T any] struct {
	s     *Store[T]
	af    *artifact.AtomicFile
	path  string
	slab  []byte
	used  int
	count int
	crc   hash.Hash32
}

// newRunWriter stages a new run that encodes through slab, a whole number
// of records long.
func (s *Store[T]) newRunWriter(slab []byte) (*runWriter[T], error) {
	if err := s.ensureDir(); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, fmt.Sprintf("run-%06d.ext", s.seq))
	s.seq++
	af, err := artifact.CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	if _, err := af.Write(make([]byte, runHeaderSize)); err != nil {
		af.Abort()
		return nil, core.ArtifactErrorf(path, "run", err, "writing header placeholder: %v", err)
	}
	return &runWriter[T]{
		s:    s,
		af:   af,
		path: path,
		slab: slab,
		crc:  artifact.NewChecksum(),
	}, nil
}

// add appends recs to the run.
func (w *runWriter[T]) add(recs []T) error {
	for i := range recs {
		if err := w.put(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// put appends one record to the run.
func (w *runWriter[T]) put(t *T) error {
	rec := w.s.codec.Size
	if w.used+rec > len(w.slab) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.s.codec.Encode(w.slab[w.used:w.used+rec], t)
	w.used += rec
	w.count++
	return nil
}

func (w *runWriter[T]) flush() error {
	if w.used == 0 {
		return nil
	}
	w.crc.Write(w.slab[:w.used])
	if _, err := w.af.Write(w.slab[:w.used]); err != nil {
		return core.ArtifactErrorf(w.path, "run", err, "writing: %v", err)
	}
	w.used = 0
	return nil
}

// finish seals the run: header back-patch, fsync, rename into place. On
// success the store's spill accounting is charged and the run is returned.
func (w *runWriter[T]) finish() (*runFile, error) {
	if err := w.flush(); err != nil {
		w.af.Abort()
		return nil, err
	}
	hdr := make([]byte, runHeaderSize)
	copy(hdr, runMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], runVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(w.s.codec.Size))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(w.count))
	binary.LittleEndian.PutUint32(hdr[24:], w.crc.Sum32())
	binary.LittleEndian.PutUint32(hdr[28:], artifact.Checksum(hdr[:28]))
	if _, err := w.af.WriteAt(hdr, 0); err != nil {
		w.af.Abort()
		return nil, core.ArtifactErrorf(w.path, "run", err, "writing header: %v", err)
	}
	if err := w.af.Commit(); err != nil {
		return nil, err
	}
	w.s.noteSpill(int64(w.count * w.s.codec.Size))
	return &runFile{path: w.path, count: w.count}, nil
}

func (w *runWriter[T]) abort() { w.af.Abort() }

// runReader streams a run file back, verifying the header up front and the
// payload checksum incrementally — a truncated, corrupted, or stale-version
// run is always a typed *core.ArtifactError, never a panic or silent
// short read.
type runReader[T any] struct {
	f         *os.File
	path      string
	codec     codecOf[T]
	remaining int
	slab      []byte
	crc       hash.Hash32
	want      uint32
}

// codecOf mirrors Codec so runReader avoids a type parameter cycle.
type codecOf[T any] struct {
	size   int
	decode func(src []byte, t *T)
}

// openRun opens rf for reading through slab, which bounds each fill to
// len(slab)/recSize records.
func (s *Store[T]) openRun(rf *runFile, slab []byte) (*runReader[T], error) {
	f, err := os.Open(rf.path)
	if err != nil {
		return nil, core.ArtifactErrorf(rf.path, "run", err, "opening: %v", err)
	}
	hdr := make([]byte, runHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", err,
			"truncated header (%v)", err)
	}
	if [8]byte(hdr[:8]) != runMagic {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", nil,
			"bad magic %q: not an extmem run file", hdr[:8])
	}
	if got, want := artifact.Checksum(hdr[:28]), binary.LittleEndian.Uint32(hdr[28:]); got != want {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", nil,
			"header checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != runVersion {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", nil,
			"run format version %d, this build understands only %d", v, runVersion)
	}
	if rs := int(binary.LittleEndian.Uint32(hdr[12:])); rs != s.codec.Size {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", nil,
			"record size %d does not match the store's %d", rs, s.codec.Size)
	}
	count := int(binary.LittleEndian.Uint64(hdr[16:]))
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", err, "stat: %v", err)
	}
	if want := int64(runHeaderSize) + int64(count)*int64(s.codec.Size); st.Size() != want {
		f.Close()
		return nil, core.ArtifactErrorf(rf.path, "run", nil,
			"file is %d bytes, header declares %d records of %d bytes (truncated?)",
			st.Size(), count, s.codec.Size)
	}
	return &runReader[T]{
		f:         f,
		path:      rf.path,
		codec:     codecOf[T]{size: s.codec.Size, decode: s.codec.Decode},
		remaining: count,
		slab:      slab,
		crc:       artifact.NewChecksum(),
		want:      binary.LittleEndian.Uint32(hdr[24:]),
	}, nil
}

// fill decodes up to len(dst) records into dst, returning how many. Zero
// means the run is exhausted — at which point the payload checksum has been
// verified end to end.
func (r *runReader[T]) fill(dst []T) (int, error) {
	if r.remaining == 0 {
		return 0, nil
	}
	n := len(dst)
	if n > r.remaining {
		n = r.remaining
	}
	if max := len(r.slab) / r.codec.size; n > max {
		n = max
	}
	b := r.slab[:n*r.codec.size]
	if _, err := io.ReadFull(r.f, b); err != nil {
		return 0, core.ArtifactErrorf(r.path, "run", err, "reading payload: %v", err)
	}
	r.crc.Write(b)
	for i := 0; i < n; i++ {
		r.codec.decode(b[i*r.codec.size:], &dst[i])
	}
	r.remaining -= n
	if r.remaining == 0 {
		if got := r.crc.Sum32(); got != r.want {
			return 0, core.ArtifactErrorf(r.path, "run", nil,
				"payload checksum mismatch (stored %08x, computed %08x)", r.want, got)
		}
	}
	return n, nil
}

func (r *runReader[T]) close() { r.f.Close() }
