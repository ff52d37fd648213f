// Package datasets provides the relation instances used by the paper's
// examples and experiments: the exact Places running example of Figure 1
// (§1, reconstructed so that every measure the paper prints — Table 1,
// Table 2, Figure 2 — holds exactly; see places.go for the derivation) and
// deterministic synthetic stand-ins for the six real-life relations of
// §6.2 (Country, Rental, Image, PageLinks, Veterans), whose original files
// (MySQL sample databases, Wikimedia dumps, KDD Cup 98) are not
// redistributable here.
//
// Synthesize builds schemas from ColumnSpec lists with planted exact and
// approximate FDs (DerivedFrom columns are functions of other columns), so
// experiments know ground truth. TPC-H generation (§6.1) lives in
// internal/tpch.
package datasets
