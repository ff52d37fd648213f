// Evolution simulates the scenario that motivates the paper: reality
// changes under a running database, systematic violations of a constraint
// appear, and the periodic validation process evolves the constraint
// instead of "repairing" the data.
//
// A telecom schema starts with the rule district → area_code. The regulator
// then splits area codes by subscriber line type (an overlay plan), so new
// rows violate the rule — not because they are dirty, but because the rule
// is stale. The session detects the violation, proposes extensions ranked
// by confidence and goodness, and the accepted repair district, line_type →
// area_code captures the new reality. Run with:
//
//	go run ./examples/evolution
package main

import (
	"fmt"
	"log"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/relation"
)

func main() {
	// Era 1: area_code is a function of district alone. line_type and the
	// other columns exist but do not influence it yet.
	before := datasets.Synthesize("subscribers", 5000, 42, []datasets.ColumnSpec{
		{Name: "subscriber", Card: 0},
		{Name: "district", Card: 40, Salt: 1},
		{Name: "line_type", Card: 3, Salt: 2},
		{Name: "area_code", Card: 40, DerivedFrom: []int{1}, Salt: 3},
		{Name: "tariff", Card: 12, Salt: 4},
	})

	// open starts a validation session holding the stale rule and prints its
	// measures on the instance.
	open := func(r *relation.Relation, era string) (*evolvefd.Session, bool) {
		s := evolvefd.NewSession(r)
		s.MustDefine("AC", "district -> area_code")
		m, _ := s.Measures("AC")
		text, _ := s.FDText("AC")
		fmt.Printf("[%s] %s: confidence %s = %.3f, goodness %d, exact=%v\n",
			era, text, m.ConfidenceRatio, m.Confidence, m.Goodness, m.Exact)
		return s, m.Exact
	}

	fmt.Println("== era 1: the original constraint models reality ==")
	if _, exact := open(before, "era 1"); !exact {
		log.Fatal("era-1 data should satisfy the FD")
	}

	// Era 2: the overlay plan. New contracts get area codes that also
	// depend on the line type; existing subscribers keep their old codes.
	// The live table accumulates both generations, distinguished by the
	// contract plan column.
	after := datasets.Synthesize("subscribers", 5000, 43, []datasets.ColumnSpec{
		{Name: "subscriber", Card: 0},
		{Name: "district", Card: 40, Salt: 1},
		{Name: "line_type", Card: 3, Salt: 2},
		{Name: "area_code", Card: 80, DerivedFrom: []int{1, 2}, Salt: 5},
		{Name: "tariff", Card: 12, Salt: 4},
	})
	schema := relation.MustSchema(
		relation.Column{Name: "subscriber", Kind: relation.KindString},
		relation.Column{Name: "district", Kind: relation.KindString},
		relation.Column{Name: "line_type", Kind: relation.KindString},
		relation.Column{Name: "area_code", Kind: relation.KindString},
		relation.Column{Name: "tariff", Kind: relation.KindString},
		relation.Column{Name: "plan", Kind: relation.KindString},
	)
	merged := relation.New("subscribers", schema)
	for row := 0; row < before.NumRows(); row++ {
		merged.MustAppend(append(before.Row(row), relation.String("plan-2015"))...)
	}
	for row := 0; row < after.NumRows(); row++ {
		merged.MustAppend(append(after.Row(row), relation.String("plan-2016"))...)
	}

	fmt.Println("\n== era 2: overlay plan rolls out; violations accumulate ==")
	session, exact := open(merged, "era 2")
	if exact {
		log.Fatal("era-2 data should violate the FD")
	}

	// Periodic validation: the session ranks the violation and proposes
	// evolutions; accepting the top-ranked proposal plays the designer.
	fmt.Println("\n== advisor session ==")
	for i, v := range session.Check() {
		fmt.Printf("%d. %s  (c=%.3f (%s), g=%d, rank %.3f)\n", i+1, v.FD,
			v.Measures.Confidence, v.Measures.ConfidenceRatio, v.Measures.Goodness, v.Rank)
		proposals, err := session.Repair(v.Label, evolvefd.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range proposals {
			fmt.Printf("     candidate +%v (c=%.3f (%s), g=%d)\n", p.Added,
				p.Measures.Confidence, p.Measures.ConfidenceRatio, p.Measures.Goodness)
		}
		if len(proposals) == 0 {
			log.Fatal("the violated FD should be repairable")
		}
		if err := session.Accept(v.Label, proposals[0]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   → accepted: %s\n", proposals[0].FD)
	}

	if !session.Consistent() {
		log.Fatal("the session should have evolved the FD to consistency")
	}
	evolved, _ := session.FDText("AC")
	fmt.Printf("\nevolved constraint: %s\n", evolved)
	fmt.Println("the constraint now encodes the overlay plan — data untouched")
}
