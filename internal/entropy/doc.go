// Package entropy implements the entropy-based (EB) constraint-repair
// baseline that §5 of the paper compares against: the variation of
// information between clusterings (Meilă 2007), the conditional-entropy
// candidate ranking of Chiang & Miller (ICDE 2011) as the paper describes
// it, and the ε_VI measure whose equivalence with the confidence-based
// ε_CB is Theorem 1.
//
// Every quantity is a difference of partition entropies, H(π) computed
// from the class sizes of the same pli partitions the CB measures count, so
// the two methods are compared on one data structure. The finer partition
// of each difference refines the coarser one, so a difference is zero
// exactly when the two class counts are equal, and is reported as exactly 0
// then.
//
// The original CONDOR tool was unavailable to the paper's authors ("an
// experimental comparison … was unfortunately impossible"), so this package
// is built strictly from the specification in §5; together with
// internal/core it enables the CB-vs-EB comparison the paper could only
// argue theoretically — internal/bench regenerates it as a measured
// experiment, including the Theorem 1 equality check.
package entropy
