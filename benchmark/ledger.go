package main

import (
	"fmt"
	"io"
	"sort"
)

// request is one traced request, reassembled from its spans.
type request struct {
	op                  string
	rows                int64
	clientUs, handlerUs float64
	handlerSelfUs       float64 // handler minus the wal spans under it
	walUs               float64
	writes, fsyncs      int
	walBytes            int64
}

// spanAnalysis is what the serve stage's spans say, before the twins.
type spanAnalysis struct {
	requests []request
	writeUs  []float64 // every wal.write span
	fsyncUs  []float64 // every wal.fsync span
}

func analyseSpans(spans []span) *spanAnalysis {
	self := selfTimes(spans)
	byID := make(map[int32]*request)
	handlerOf := make(map[int32]int32) // handler span -> client span
	a := &spanAnalysis{}
	for _, s := range spans {
		if s.Name == "client.request" && s.End > 0 {
			byID[s.ID] = &request{op: s.Op, rows: s.N, clientUs: float64(s.dur()) / 1e3}
		}
	}
	for _, s := range spans {
		if s.Name != "serve.handler" {
			continue
		}
		if r := byID[s.Parent]; r != nil {
			handlerOf[s.ID] = s.Parent
			r.handlerUs = float64(s.dur()) / 1e3
			r.handlerSelfUs = float64(self[s.ID]) / 1e3
		}
	}
	for _, s := range spans {
		if s.Name != "wal.write" && s.Name != "wal.fsync" {
			continue
		}
		us := float64(s.dur()) / 1e3
		r := byID[handlerOf[s.Parent]]
		if s.Name == "wal.write" {
			a.writeUs = append(a.writeUs, us)
		} else {
			a.fsyncUs = append(a.fsyncUs, us)
		}
		if r == nil {
			continue
		}
		r.walUs += us
		if s.Name == "wal.write" {
			r.writes++
			r.walBytes += s.N
		} else {
			r.fsyncs++
		}
	}
	for _, r := range byID {
		if r.handlerUs > 0 {
			a.requests = append(a.requests, *r)
		}
	}
	return a
}

func (a *spanAnalysis) collect(keep func(request) bool, val func(request) float64) []float64 {
	var out []float64
	for _, r := range a.requests {
		if keep(r) {
			out = append(out, val(r))
		}
	}
	return out
}

func isOp(op string) func(request) bool { return func(r request) bool { return r.op == op } }

// ledgerRow splits one op type's client-observed time over the layers, in
// µs. A ledger has to add up, and medians of parts do not, so every cell is
// a mean — over the middle 90% of the op's requests by client latency for
// the span columns (the same requests in every column), over the middle 90%
// of the twin's samples for the columns a twin supplies. unattributed is
// what is left when a twin, replaying alone, took longer than the live
// handler had to give.
type ledgerRow struct {
	op                                               string
	n                                                int
	client, net, serve, wal, evolvefd, relation, pli float64
	core, unattributed                               float64
}

// twins bundles the three replays of one tenant's op log.
type twins struct {
	session  *sessionTwin
	counter  *counterTwin
	relation *relationTwin
}

// buildLedger combines the span analysis with the twins.
func buildLedger(a *spanAnalysis, tw *twins) []ledgerRow {
	var rows []ledgerRow
	for k := opKind(0); k < numOpKinds; k++ {
		var reqs []request
		for _, r := range a.requests {
			if r.op == opNames[k] {
				reqs = append(reqs, r)
			}
		}
		if len(reqs) == 0 {
			continue
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].clientUs < reqs[j].clientUs })
		reqs = reqs[len(reqs)/20 : len(reqs)-len(reqs)/20]
		row := ledgerRow{op: opNames[k], n: len(reqs)}
		var handlerSelf, rowsPerReq float64
		for _, r := range reqs {
			row.client += r.clientUs
			row.net += r.clientUs - r.handlerUs
			row.wal += r.walUs
			handlerSelf += r.handlerSelfUs
			rowsPerReq += float64(r.rows)
		}
		n := float64(len(reqs))
		row.client, row.net, row.wal, handlerSelf, rowsPerReq = row.client/n, row.net/n, row.wal/n, handlerSelf/n, rowsPerReq/n

		engine := trimmedMean(tw.session.perOp[k])
		switch k {
		case opCheck:
			row.core = trimmedMean(tw.counter.orderUs)
		case opMeasures:
			row.core = trimmedMean(tw.counter.computeUs)
		case opAppend:
			row.relation = trimmedMean(tw.relation.appendNsPerRow) * rowsPerReq / 1e3
		case opDelete, opUpdate:
			row.pli = trimmedMean(tw.counter.dmlUs[k])
		case opCompact:
			row.relation = trimmedMean(tw.relation.compactUs)
			row.pli = max(trimmedMean(tw.counter.dmlUs[k])-row.relation, 0)
		}
		row.evolvefd = max(engine-row.relation-row.pli-row.core, 0)
		below := row.evolvefd + row.relation + row.pli + row.core
		row.serve = max(handlerSelf-below, 0)
		row.unattributed = row.client - (row.net + row.serve + row.wal + below)
		rows = append(rows, row)
	}
	return rows
}

func printLedger(w io.Writer, rows []ledgerRow) {
	fmt.Fprintln(w, "\nper-op ledger (µs, means over the middle 90%; traced slices of the serve stage)")
	fmt.Fprintf(w, "%-9s %7s %9s %8s %8s %8s %9s %9s %8s %8s %13s\n",
		"op", "n", "client", "net", "serve", "wal", "evolvefd", "relation", "pli", "core", "unattributed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %7d %9.1f %8.1f %8.1f %8.1f %9.1f %9.1f %8.1f %8.1f %8.1f (%4.1f%%)\n",
			r.op, r.n, r.client, r.net, r.serve, r.wal, r.evolvefd, r.relation, r.pli, r.core,
			r.unattributed, 100*r.unattributed/r.client)
	}
}
