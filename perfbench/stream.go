package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// stream is one workload's pre-generated input: the prefill batches, the
// timed batches, and query pairs. The generator's mirror reflects every
// batch, so once the whole stream has been applied mix.OracleAnswers is the
// ground truth for any pair; prefilled is the mirror after the prefill.
type stream struct {
	mix       *workload.QueryMix
	prefill   []graph.Batch
	prefilled *graph.Graph
	batches   []graph.Batch
	// queries are the timed query batches, drawn against the prefilled
	// graph; check is the oracle sample, drawn against the final one.
	queries [][]core.Pair
	check   [][2]int
}

// streamShape says how much of each input to generate.
type streamShape struct {
	n, size          int
	prefill, batches int
	queryBatches     int
	queryPairs       int
	checkPairs       int
}

// makeStream generates every input of a run from the scenario and seed.
// Empty batches (a stalled generator) are skipped, so every batch does
// work; a generator that stalls for good is an error.
func makeStream(scenario string, seed uint64, sh streamShape) (*stream, error) {
	sc, err := workload.Get(scenario)
	if err != nil {
		return nil, err
	}
	mix := workload.NewQueryMix(sc.New(sh.n, seed), sh.n, seed)
	next := func(k int) ([]graph.Batch, error) {
		out := make([]graph.Batch, 0, k)
		for stalls := 0; len(out) < k; {
			b := mix.Next(sh.size)
			if len(b) == 0 {
				if stalls++; stalls > 100 {
					return nil, fmt.Errorf("scenario %s stalled after %d batches", scenario, len(out))
				}
				continue
			}
			out = append(out, b)
		}
		return out, nil
	}
	st := &stream{mix: mix}
	if st.prefill, err = next(sh.prefill); err != nil {
		return nil, err
	}
	st.prefilled = mix.Mirror().Clone()
	// One draw for all timed queries: every draw sorts the mirror's edge
	// list, which must not happen per query. The query stream has its own
	// PRG, so drawing here leaves the update stream unchanged.
	flat := mix.NextQueries(sh.queryBatches * sh.queryPairs)
	for i := 0; i < sh.queryBatches; i++ {
		q := make([]core.Pair, sh.queryPairs)
		for j := range q {
			p := flat[i*sh.queryPairs+j]
			q[j] = core.Pair{U: p[0], V: p[1]}
		}
		st.queries = append(st.queries, q)
	}
	if st.batches, err = next(sh.batches); err != nil {
		return nil, err
	}
	st.check = mix.NextQueriesFrom(1, sh.checkPairs)
	return st, nil
}

// timedStream generates a stream and reports how long generation took.
func timedStream(scenario string, seed uint64, sh streamShape) (*stream, time.Duration, error) {
	t0 := time.Now()
	st, err := makeStream(scenario, seed, sh)
	return st, time.Since(t0), err
}

// samePartition reports whether two labelings induce the same partition of
// the vertices (labels themselves are arbitrary), and the first vertex at
// which they disagree.
func samePartition(a, b []int) (bool, int) {
	if len(a) != len(b) {
		return false, -1
	}
	ab := map[int]int{}
	ba := map[int]int{}
	for v := range a {
		if x, ok := ab[a[v]]; ok && x != b[v] {
			return false, v
		}
		if x, ok := ba[b[v]]; ok && x != a[v] {
			return false, v
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return true, -1
}

// checkPartition compares an instance's component labels with the oracle's
// on the final mirror: one attempted operation, failed on any mismatch.
func (r *run) checkPartition(who string, labels []int, mirror *graph.Graph) {
	r.ops(1)
	if ok, v := samePartition(labels, oracle.Components(mirror)); !ok {
		r.fail("%s: component partition differs from the oracle at vertex %d", who, v)
	}
}

// checkAnswers compares answers to pairs with the oracle's: one attempted
// operation, failed on the first mismatch.
func (r *run) checkAnswers(who string, pairs [][2]int, got, want []bool) {
	r.ops(1)
	if len(got) != len(want) {
		r.fail("%s: %d answers for %d pairs", who, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			r.fail("%s: pair %v answered %v, oracle says %v", who, pairs[i], got[i], want[i])
			return
		}
	}
}

// oracleAnswers answers pairs on g with the sequential oracle.
func oracleAnswers(g *graph.Graph, pairs [][2]int) []bool {
	labels := oracle.Components(g)
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = labels[p[0]] == labels[p[1]]
	}
	return out
}

// pairsOf converts query pairs to the library's type.
func pairsOf(ps [][2]int) []core.Pair {
	out := make([]core.Pair, len(ps))
	for i, p := range ps {
		out[i] = core.Pair{U: p[0], V: p[1]}
	}
	return out
}
