package serve

import evolvefd "github.com/evolvefd/evolvefd"

// Wire types of the /v1 API. Responses marshal with stable field order and
// no HTML escaping, so a response body is canonical: the golden-response
// tests and the HTTP-vs-library differential suite compare raw bytes. The
// facade's result types carry the wire's json tags and are embedded as they
// are; POST compact answers with an evolvefd.CompactionStats.

// ErrorBody is the typed error envelope every non-2xx response carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure class (stable, machine-matchable) and the
// human-readable cause.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// FDDef is one labelled FD spec in Define syntax, e.g. {"F1", "A, B -> C"}.
type FDDef struct {
	Label string `json:"label"`
	Spec  string `json:"spec"`
}

// CreateRequest uploads a tenant's instance (CSV text, header row included,
// optionally with ":kind" type annotations) and its initial FDs.
type CreateRequest struct {
	CSV string  `json:"csv"`
	FDs []FDDef `json:"fds,omitempty"`
}

// CreateResponse acknowledges a created tenant.
type CreateResponse struct {
	Tenant  string `json:"tenant"`
	Rows    int    `json:"rows"`
	FDs     int    `json:"fds"`
	Durable bool   `json:"durable"`
}

// AppendRequest ingests a batch of tuples, one cell list per row, parsed
// with the column kinds ("" and "NULL" become NULL). The batch is
// all-or-nothing: a rejected row fails the request and appends no row.
type AppendRequest struct {
	Rows [][]string `json:"rows"`
}

// AppendResponse acknowledges an applied append batch.
type AppendResponse struct {
	Appended int `json:"appended"`
	LiveRows int `json:"live_rows"`
}

// DeleteRequest tombstones the given row ids in one Delete call: an unknown
// id fails the request and applies none of it. Ids are stable within a
// storage epoch.
type DeleteRequest struct {
	Rows []int `json:"rows"`
}

// DeleteResponse acknowledges applied deletes.
type DeleteResponse struct {
	Deleted  int `json:"deleted"`
	LiveRows int `json:"live_rows"`
}

// RowUpdate replaces the cells of one live row in place.
type RowUpdate struct {
	Row   int      `json:"row"`
	Cells []string `json:"cells"`
}

// UpdateRequest applies a batch of in-place row corrections, in order and
// all-or-nothing (like AppendRequest).
type UpdateRequest struct {
	Updates []RowUpdate `json:"updates"`
}

// UpdateResponse acknowledges applied updates.
type UpdateResponse struct {
	Updated int `json:"updated"`
}

// MeasuresResponse answers GET measures?fd=LABEL.
type MeasuresResponse struct {
	Label    string            `json:"label"`
	FD       string            `json:"fd"`
	Measures evolvefd.Measures `json:"measures"`
}

// CheckResponse answers GET check: the violated FDs, repair-first.
type CheckResponse struct {
	Consistent bool                 `json:"consistent"`
	Violations []evolvefd.Violation `json:"violations"`
}

// RepairRequest runs the repair search for one violated FD. The option
// fields mirror evolvefd.Options.
type RepairRequest struct {
	FD             string  `json:"fd"`
	FirstOnly      bool    `json:"first_only,omitempty"`
	MaxAdded       int     `json:"max_added,omitempty"`
	MaxGoodness    *int    `json:"max_goodness,omitempty"`
	MinimalOnly    bool    `json:"minimal_only,omitempty"`
	Balanced       bool    `json:"balanced,omitempty"`
	GoodnessWeight float64 `json:"goodness_weight,omitempty"`
	Parallelism    int     `json:"parallelism,omitempty"`
}

// RepairResponse lists the ranked repairs of one FD, best first.
type RepairResponse struct {
	Label       string                `json:"label"`
	Suggestions []evolvefd.Suggestion `json:"suggestions"`
}

// AcceptRequest adopts a repair: the named attributes join the FD's
// antecedent (the designer saying yes).
type AcceptRequest struct {
	FD    string   `json:"fd"`
	Added []string `json:"added"`
}

// AcceptResponse echoes the evolved dependency.
type AcceptResponse struct {
	Label string `json:"label"`
	FD    string `json:"fd"`
}

// DefineRequest declares one more FD on a live tenant.
type DefineRequest struct {
	Label string `json:"label"`
	Spec  string `json:"spec"`
}

// DropRequest removes a defined FD.
type DropRequest struct {
	Label string `json:"label"`
}

// OKResponse acknowledges an operation with no further payload (define,
// drop, flush, close).
type OKResponse struct {
	OK bool `json:"ok"`
}

// DiscoverResponse answers GET discover: the minimal exact-FD cover.
type DiscoverResponse struct {
	Cover []evolvefd.DiscoveredFD `json:"cover"`
}

// SuggestionsResponse answers GET suggestions: the advisor diff since the
// previous checkpoint.
type SuggestionsResponse struct {
	Suggestions []evolvefd.AdvisorSuggestion `json:"suggestions"`
}

// FeedEvent is one SSE "suggestion" event. Checkpoint numbers are assigned
// per tenant in publish order; every subscriber observes checkpoints
// monotonically increasing.
type FeedEvent struct {
	Checkpoint uint64 `json:"checkpoint"`
	Kind       string `json:"kind"`
	Label      string `json:"label,omitempty"`
	FD         string `json:"fd"`
	Spec       string `json:"spec,omitempty"`
}

// StatsResponse answers GET /v1/{tenant}: the tenant's observable state.
type StatsResponse struct {
	Tenant     string            `json:"tenant"`
	Durable    bool              `json:"durable"`
	Generation uint64            `json:"generation"`
	Epoch      uint64            `json:"epoch"`
	LiveRows   int               `json:"live_rows"`
	FDs        []string          `json:"fds"`
	Mem        evolvefd.MemStats `json:"mem"`
}

// TenantsResponse answers GET /v1/tenants.
type TenantsResponse struct {
	Tenants []string `json:"tenants"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	OK      bool `json:"ok"`
	Tenants int  `json:"tenants"`
}
