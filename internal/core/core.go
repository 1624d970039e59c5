// Package core holds the cross-cutting vocabulary of the public v1 surface:
// the typed error taxonomy every package returns through errors.Is/As, the
// ProgressEvent stream construction loops emit, and the cooperative
// cancellation checkpoint they all share.
//
// It sits below every other internal package (it imports nothing from this
// module), so internal/par, internal/spanner, internal/mpc, internal/cclique,
// internal/apsp and internal/oracle can all return the same error types and
// the facade can re-export them as type aliases without import cycles.
package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrInvalidOption is the sentinel every option-validation failure matches:
// errors.Is(err, ErrInvalidOption) holds for every *OptionError any layer
// returns, so callers can classify configuration mistakes without string
// matching.
var ErrInvalidOption = errors.New("invalid option")

// OptionError reports one rejected option value. It matches ErrInvalidOption
// under errors.Is and carries the structured fields programmatic callers
// need under errors.As.
type OptionError struct {
	// Field names the rejected option, qualified by the rejecting layer
	// (e.g. "mpcspanner: Workers", "spanner: Options.Workers").
	Field string
	// Value is the rejected value as supplied.
	Value any
	// Reason states the constraint the value violated.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("invalid option %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Is makes every *OptionError match the ErrInvalidOption sentinel.
func (e *OptionError) Is(target error) bool { return target == ErrInvalidOption }

// ErrArtifact is the sentinel every artifact-format failure matches:
// errors.Is(err, ErrArtifact) holds for every *ArtifactError the artifact
// layer returns — a missing or truncated file, a checksum mismatch, a foreign
// magic number, a version from the future — so callers can distinguish "this
// file is not a usable artifact" from configuration mistakes (ErrInvalidOption)
// and interruptions (ErrCanceled) without string matching.
var ErrArtifact = errors.New("invalid artifact")

// ArtifactError reports one rejected artifact file, or one rejected text
// edge list (EdgeListErrorf). It matches ErrArtifact under errors.Is and
// carries the structured fields programmatic callers need under errors.As.
// When the failure wraps an I/O error, Unwrap exposes it, so
// errors.Is(err, fs.ErrNotExist) still works for a missing path.
type ArtifactError struct {
	// Path is the artifact or edge-list file the failure concerns.
	Path string
	// Section names the part of the container that failed ("header",
	// "section-table", "meta", "graph-edges", …); empty when the failure
	// precedes section decoding (open/stat/read errors).
	Section string
	// Reason states what was wrong with it.
	Reason string

	cause error
	kind  string // what Error calls the file; empty means "artifact"
}

func (e *ArtifactError) Error() string {
	kind := e.kind
	if kind == "" {
		kind = "artifact"
	}
	if e.Section != "" {
		return fmt.Sprintf("invalid %s %s: section %s: %s", kind, e.Path, e.Section, e.Reason)
	}
	return fmt.Sprintf("invalid %s %s: %s", kind, e.Path, e.Reason)
}

// Is makes every *ArtifactError match the ErrArtifact sentinel.
func (e *ArtifactError) Is(target error) bool { return target == ErrArtifact }

// Unwrap exposes the underlying I/O error, when there is one.
func (e *ArtifactError) Unwrap() error { return e.cause }

// ArtifactErrorf builds a *ArtifactError; pass a nil cause when the failure
// is purely structural (bad magic, bad checksum) rather than I/O.
func ArtifactErrorf(path, section string, cause error, format string, args ...any) error {
	return &ArtifactError{Path: path, Section: section,
		Reason: fmt.Sprintf(format, args...), cause: cause}
}

// EdgeListErrorf builds the *ArtifactError for a rejected text edge list.
// It matches ErrArtifact like every other, and its message reads
// "invalid edge list <path>: …", so an operator is not told that a text
// file is a corrupt artifact.
func EdgeListErrorf(path string, cause error, format string, args ...any) error {
	return &ArtifactError{Path: path, Reason: fmt.Sprintf(format, args...),
		cause: cause, kind: "edge list"}
}

// ErrCanceled is the sentinel a cooperatively interrupted operation matches.
// Errors returned for an interrupted context satisfy both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()) — the latter
// because Canceled wraps the context's own error (context.Canceled or
// context.DeadlineExceeded).
var ErrCanceled = errors.New("operation canceled")

// canceledError wraps a context error so it matches ErrCanceled while still
// unwrapping to context.Canceled / context.DeadlineExceeded.
type canceledError struct{ cause error }

func (e *canceledError) Error() string        { return fmt.Sprintf("operation canceled: %v", e.cause) }
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }
func (e *canceledError) Unwrap() error        { return e.cause }

// Canceled wraps a context's error into the taxonomy. A nil cause returns
// nil, so `return core.Canceled(ctx.Err())` is safe on any path.
func Canceled(cause error) error {
	if cause == nil {
		return nil
	}
	return &canceledError{cause: cause}
}

// Check is the cooperative checkpoint every construction loop calls between
// chunks of work: it returns nil while ctx is live and Canceled(ctx.Err())
// once ctx is done. Checkpoints never change what is computed — equal seeds
// give bit-identical results whether or not a context is ever canceled, and
// a canceled context is noticed at the next checkpoint rather than
// mid-chunk.
func Check(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return Canceled(ctx.Err())
	default:
		return nil
	}
}

// ProgressEvent is one observation of a running build, delivered to the
// callback installed with the facade's WithProgress option. Events are
// emitted synchronously from the construction loop at its cancellation
// checkpoints (one per grow iteration / contraction / phase transition), so
// a callback also bounds how stale a cancellation can be: cancel inside the
// callback and the loop exits at the very next checkpoint.
type ProgressEvent struct {
	// Stage names the checkpoint: "grow", "contract", "phase2" for the local
	// engine; "mpc-grow", "mpc-contract", "mpc-phase2" on the simulated
	// cluster; "balls", "sparse", "dense" for the unweighted construction;
	// "collect" for the §7 gather step; "repetition" when Repetitions > 1
	// finishes one independent run.
	Stage string

	// Algorithm is the family emitting the event ("general", "baswana-sen",
	// "general-whp", "unweighted", ...).
	Algorithm string

	// Epoch is the 1-based contraction epoch of a grow checkpoint (as in
	// spanner.Schedule); Iteration counts grow iterations completed so far
	// across all epochs, so Iteration/TotalIterations is a monotone
	// completion fraction. Both are zero when the stage has no iteration
	// structure.
	Epoch, Iteration int

	// TotalIterations is the schedule length, so callers can render
	// completion fractions without knowing the schedule formula.
	TotalIterations int

	// Supernodes is the current quotient-graph size (after contraction for
	// "contract" events); zero on the simulated MPC plane, which tracks
	// edges, not supernodes — see AliveEdges.
	Supernodes int

	// AliveEdges is the number of unprocessed quotient-graph edges still
	// live in the construction.
	AliveEdges int

	// SpannerEdges is the number of edges selected so far.
	SpannerEdges int

	// Rounds is the simulated-round bill so far (MPC / Congested Clique
	// stages only).
	Rounds int
}
