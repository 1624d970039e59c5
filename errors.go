package mpcspanner

import "mpcspanner/internal/core"

// The v1 error taxonomy. Every error returned by this package — and by the
// construction loops it drives — classifies under exactly one of these
// sentinels via errors.Is, so callers never match on message text:
//
//	errors.Is(err, ErrInvalidOption)  // a rejected option or argument
//	errors.Is(err, ErrCanceled)       // the context ended the operation
//	errors.Is(err, context.Canceled)  // also true for canceled contexts
//
// Structured detail travels through errors.As: every ErrInvalidOption match
// carries a *OptionError naming the field, the rejected value, and the
// violated constraint.
var (
	// ErrInvalidOption matches every option-validation failure, at any
	// layer (facade option parsing, internal package validation).
	ErrInvalidOption = core.ErrInvalidOption

	// ErrCanceled matches every cooperative-cancellation failure. The
	// concrete error also unwraps to the context's own error
	// (context.Canceled or context.DeadlineExceeded), so both
	// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()) hold.
	ErrCanceled = core.ErrCanceled

	// ErrArtifact matches every artifact-format failure from Open,
	// BuildResult.Save and Session.Save: a missing or truncated file, a
	// checksum mismatch, a foreign magic number, a format version from the
	// future. When the failure wraps an I/O error the chain unwraps to it,
	// so errors.Is(err, fs.ErrNotExist) still identifies a missing path.
	ErrArtifact = core.ErrArtifact
)

// OptionError is the structured form of an option rejection: retrieve it
// with errors.As to learn which Field was rejected, the Value supplied, and
// the Reason (the violated constraint).
type OptionError = core.OptionError

// ArtifactError is the structured form of an artifact rejection: retrieve
// it with errors.As to learn the Path, the container Section that failed
// ("header", "section-table", "graph-edges", …), and the Reason.
type ArtifactError = core.ArtifactError

// ProgressEvent is one observation of a running Build or Serve, delivered
// to the callback installed with WithProgress. See the field docs in
// internal/core for the stage vocabulary; events are emitted synchronously
// at the construction loop's cancellation checkpoints, so canceling the
// context from inside the callback stops the build at the next checkpoint.
type ProgressEvent = core.ProgressEvent
