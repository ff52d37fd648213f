// Sentinel errors of the facade. Every input-validation failure a Session
// or Follower returns wraps one of these with %w, so callers — the HTTP
// service layer in internal/serve above all — classify failures with
// errors.Is and map them to stable status codes instead of string-matching
// messages.
package evolvefd

import (
	"errors"

	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/relation"
)

var (
	// ErrUnknownFD flags a label no defined FD carries (Measures, Repair,
	// Accept, FDText).
	ErrUnknownFD = errors.New("evolvefd: unknown FD")
	// ErrDuplicateFD flags a Define under an already-taken label.
	ErrDuplicateFD = errors.New("evolvefd: FD already defined")

	// ErrArity flags a tuple or cell list whose length does not match the
	// schema (Append, AppendStrings, Update, UpdateStrings).
	ErrArity = relation.ErrArity
	// ErrBadValue flags a cell that cannot be parsed into, or does not fit,
	// its column's kind, and a negative discovery bound (DiscoveryOptions).
	ErrBadValue = relation.ErrBadValue
	// ErrUnknownRow flags a Delete or Update of a row id that is out of
	// range or already deleted.
	ErrUnknownRow = relation.ErrUnknownRow
	// ErrUnknownAttribute flags an attribute name the schema does not have
	// (FD specs, discovery Consequents, Accept suggestions).
	ErrUnknownAttribute = relation.ErrUnknownAttribute
	// ErrBadFD flags an FD spec that does not parse or validate.
	ErrBadFD = core.ErrBadFD
)
