package main

import (
	"context"
	"fmt"
	"hash/fnv"

	nimble "repro"
)

// oracle answers reads from a twin deployment built from the same seed:
// one instance, cache off, no materialized views, Parallelism 1. The
// twin replays the run's writes, so it can answer at every version of
// the data.
type oracle struct {
	twin *deployment
	memo map[oracleKey]uint64 // answer hash by query and version
}

type oracleKey struct {
	query   string
	version int
}

func newOracle(d *dataset) (*oracle, error) {
	twin, err := newDeployment(d, nimble.Config{Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("oracle twin: %w", err)
	}
	return &oracle{twin: twin, memo: map[oracleKey]uint64{}}, nil
}

// answer hashes the twin's serialized answer to q; the twin must hold
// version v of the data.
func (o *oracle) answer(q string, v int) (uint64, error) {
	k := oracleKey{q, v}
	if h, ok := o.memo[k]; ok {
		return h, nil
	}
	res, err := o.twin.sys.Query(context.Background(), q)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	h := fnv.New64a()
	h.Write([]byte(res.XML()))
	o.memo[k] = h.Sum64()
	return o.memo[k], nil
}

// judge sets the outcome of every answered read. A read sent after the
// v-th write completed must equal the twin at some version in
// [vLo, vHi]: a read overlapping a write may see either side of it. A
// read equal to an earlier version is stale; one equal to no version
// is wrong.
func (o *oracle) judge(samples []sample, ops []op, applied []customer) error {
	pending := func(s *sample) bool {
		return s.outcome == "" && s.status == 200 && ops[s.op].class != classWrite
	}
	last := len(applied)
	// Ascending versions: the twin holds version v at step v.
	for v := 0; v <= last; v++ {
		if v > 0 {
			if _, err := o.twin.crm.Exec(applied[v-1].insertSQL()); err != nil {
				return fmt.Errorf("oracle: replay write: %w", err)
			}
		}
		for i := range samples {
			s := &samples[i]
			if !pending(s) || v < s.vLo || v > s.vHi {
				continue
			}
			h, err := o.answer(ops[s.op].query, v)
			if err != nil {
				return err
			}
			if h == s.hash {
				s.outcome = outOK
			}
		}
	}
	// Descending versions, undoing the writes: look for the earlier
	// version an unmatched read returned.
	for v := last; v >= 0; v-- {
		for i := range samples {
			s := &samples[i]
			if !pending(s) || v >= s.vLo {
				continue
			}
			h, err := o.answer(ops[s.op].query, v)
			if err != nil {
				return err
			}
			if h == s.hash {
				s.outcome = outStale
			}
		}
		if v > 0 {
			if _, err := o.twin.crm.Exec(fmt.Sprintf("DELETE FROM customers WHERE id = %d", applied[v-1].id)); err != nil {
				return fmt.Errorf("oracle: undo write: %w", err)
			}
		}
	}
	for i := range samples {
		if pending(&samples[i]) {
			samples[i].outcome = outWrong
		}
	}
	return nil
}
