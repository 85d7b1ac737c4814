package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"lusail/internal/engine"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// oracle answers each query text from a store holding the union of
// every endpoint's data (testfed.UnionStore), memoized until the data
// changes.
type oracle struct {
	mu    sync.Mutex
	st    *store.Store
	cache map[string][]string
}

func newOracle(st *store.Store) *oracle { return &oracle{st: st, cache: map[string][]string{}} }

func (o *oracle) reset(st *store.Store) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.st = st
	o.cache = map[string][]string{}
}

// expected returns the canonical multiset of rows the query must
// return.
func (o *oracle) expected(text string) ([]string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if rows, ok := o.cache[text]; ok {
		return rows, nil
	}
	res, err := evalOver(o.st, text)
	if err != nil {
		return nil, err
	}
	rows := testfed.Canon(res)
	o.cache[text] = rows
	return rows, nil
}

// check compares got with the oracle's answer as multisets.
func (o *oracle) check(text string, got *sparql.Results) error {
	want, err := o.expected(text)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return sameMultiset(want, testfed.Canon(got))
}

// evalOver evaluates text over st.
func evalOver(st *store.Store, text string) (*sparql.Results, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	res, err := engine.New(st).Eval(q)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return res, nil
}

// sameMultiset reports an errMismatch unless want and got hold the same
// rows with the same multiplicities. Both are sorted (testfed.Canon).
func sameMultiset(want, got []string) error {
	if slices.Equal(want, got) {
		return nil
	}
	return fmt.Errorf("%w: %d rows, oracle has %d (first difference: %s)", errMismatch, len(got), len(want), firstDiff(want, got))
}

func firstDiff(want, got []string) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("got %q, want %q", got[i], want[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("extra row %q", got[len(want)])
	}
	return fmt.Sprintf("missing row %q", want[len(got)])
}

// csvCanon renders a text/csv result as its header line followed by
// its sorted data rows, the form in which two CSV answers to the same
// query compare as multisets.
func csvCanon(r io.Reader) ([]string, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("csv: no header")
	}
	lines := make([]string, len(recs))
	for i, rec := range recs {
		lines[i] = strings.Join(rec, "\x1f")
	}
	sort.Strings(lines[1:])
	return lines, nil
}

// expectedCSV is the canonical CSV form of the oracle's answer: the
// oracle result run through the same encoder the server uses.
func expectedCSV(res *sparql.Results) ([]string, error) {
	var buf bytes.Buffer
	if err := res.EncodeCSV(&buf); err != nil {
		return nil, err
	}
	return csvCanon(&buf)
}
