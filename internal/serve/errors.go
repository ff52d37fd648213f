package serve

import (
	"errors"
	"net/http"

	evolvefd "github.com/evolvefd/evolvefd"
)

// errBadRequest wraps request-shape failures (malformed JSON, missing
// fields, bad query parameters) that have no library sentinel of their own.
var errBadRequest = errors.New("serve: bad request")

// classify maps an error to its stable status code and machine-readable
// code string via errors.Is against the facade sentinels (errors.As for the
// body-size bound) — never by matching message text. Unrecognised errors are
// internal: surfacing them as 500 rather than mislabelling them keeps the
// mapping honest.
func classify(err error) (status int, code string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "payload_too_large"
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound, "unknown_tenant"
	case errors.Is(err, evolvefd.ErrUnknownFD):
		return http.StatusNotFound, "unknown_fd"
	case errors.Is(err, evolvefd.ErrUnknownRow):
		return http.StatusNotFound, "unknown_row"
	case errors.Is(err, ErrTenantExists):
		return http.StatusConflict, "tenant_exists"
	case errors.Is(err, evolvefd.ErrDuplicateFD):
		return http.StatusConflict, "duplicate_fd"
	case errors.Is(err, evolvefd.ErrSessionClosed):
		return http.StatusConflict, "session_closed"
	case errors.Is(err, ErrRegistryClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, ErrBadTenantName):
		return http.StatusBadRequest, "bad_tenant_name"
	case errors.Is(err, evolvefd.ErrBadFD):
		return http.StatusBadRequest, "bad_fd"
	case errors.Is(err, evolvefd.ErrArity):
		return http.StatusBadRequest, "arity_mismatch"
	case errors.Is(err, evolvefd.ErrBadValue):
		return http.StatusBadRequest, "bad_value"
	case errors.Is(err, evolvefd.ErrUnknownAttribute):
		return http.StatusBadRequest, "unknown_attribute"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
