package mpcspanner

import (
	"context"

	"mpcspanner/internal/artifact"
	"mpcspanner/internal/core"
	"mpcspanner/internal/oracle"
)

// Artifact is a saved build opened for serving: a versioned, checksummed
// container holding a frozen graph (for a build artifact, the spanner), the
// build's determinism fingerprint, and optionally a set of precomputed
// oracle rows. On 64-bit little-endian platforms it is mmapped read-only —
// the graph is served zero-copy out of the page cache, shared by every
// process on the box that opens the same file — with a portable heap loader
// everywhere else. Create one with Open, serve it with
// Serve(ctx, nil, WithArtifact(a)), and Close it only after its sessions
// are done. See DESIGN.md §11 for the on-disk format.
type Artifact = artifact.Artifact

// Fingerprint is the determinism identity of the computation behind an
// artifact: algorithm family, seed and structural parameters. Under the
// library's seed contract, equal fingerprints on equal inputs mean
// bit-identical results at every worker count, so the pool size is not part
// of the identity: Build and Serve record Workers as 0, and one build saves
// one checksum whatever WithWorkers says.
type Fingerprint = artifact.Fingerprint

// Open loads and verifies the artifact at path: header, section table, and
// every section checksum are checked before anything is adopted, so a
// truncated, corrupted, foreign, or future-versioned file returns an
// ErrArtifact-classified *ArtifactError instead of failing later. The
// returned Artifact owns its memory (possibly a read-only file mapping);
// Close it after every Session serving from it is done.
//
//	a, err := mpcspanner.Open(ctx, "spanner.art")
//	if err != nil { ... }
//	defer a.Close()
//	s, err := mpcspanner.Serve(ctx, nil, mpcspanner.WithArtifact(a))
func Open(ctx context.Context, path string) (*Artifact, error) {
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	return artifact.Open(path, artifact.OpenOptions{})
}

// Save persists the build result to path as a versioned artifact: the
// spanner's frozen CSR, the edge ids into the source graph, and the build's
// determinism fingerprint. The file is written atomically (assembled beside
// path, then renamed in). Reload it with Open and serve it with
// WithArtifact; the restored session answers every query bit-identical to
// one served from r.Spanner() directly.
func (r *BuildResult) Save(path string) error {
	if r.g == nil {
		return core.ArtifactErrorf(path, "", nil,
			"cannot save a BuildResult that did not come from Build")
	}
	return artifact.Write(path, artifact.Payload{
		Graph:       r.Spanner(),
		EdgeIDs:     r.EdgeIDs,
		SourceN:     r.g.N(),
		SourceM:     r.g.M(),
		Fingerprint: r.fp,
	})
}

// Save persists the session's served graph, provenance, and warm state to
// path as a versioned artifact: every distance row currently resident in
// the cache (plus any frozen rows the session itself was loaded with) is
// frozen into the file, so a replica restarted from it serves the hot set
// without recomputing a single row. The write is atomic and the session
// stays usable.
func (s *Session) Save(path string) error {
	srcs, rows := oracle.SnapshotRows(s.oracle)
	if s.frozen != nil {
		// Union in the rows this session was itself loaded with: cached
		// rows never duplicate frozen ones (frozen sources bypass the
		// cache), so save→load→save keeps accumulating warmth.
		for _, src := range s.frozen.Sources() {
			row, _ := s.frozen.FrozenRow(src)
			srcs = append(srcs, src)
			rows = append(rows, row)
		}
	}
	p := s.saved
	p.RowSources, p.Rows = srcs, rows
	return artifact.Write(path, p)
}

// Fingerprint returns the provenance of what the session serves: the "mpc"
// build of a Serve-built session, "exact" for WithExact, or the stored
// fingerprint of the artifact it was loaded from.
func (s *Session) Fingerprint() Fingerprint { return s.saved.Fingerprint }

// Artifact returns the artifact the session was loaded from, or nil when
// it was built in-process.
func (s *Session) Artifact() *Artifact { return s.art }
