package core

import (
	"context"
	"testing"
	"time"

	"lusail/internal/testfed"
	"lusail/internal/trace"
)

// Head sampling: TraceSampling 0 marks every locally-rooted trace
// unsampled (tail rules decide retention), nil samples everything, and
// a joined trace honors the remote parent's flag instead of the local
// ratio.
func TestTraceHeadSampling(t *testing.T) {
	zero := 0.0
	l, _ := newUniLusail(Config{TraceSampling: &zero})
	ctx := context.Background()

	_, _, tr, err := l.ExecuteTraced(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Sampled() {
		t.Error("TraceSampling=0 must leave locally-rooted traces unsampled")
	}

	// A remote parent's sampled flag overrides the local ratio: the head
	// decision belongs to the trace's root process.
	parent := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	_, _, jtr, err := l.ExecuteTraced(trace.WithRemoteParent(ctx, parent), testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if jtr.ID() != parent.TraceID {
		t.Fatalf("joined trace ID = %s, want remote parent's %s", jtr.ID(), parent.TraceID)
	}
	if !jtr.Root.Sampled() {
		t.Error("joined trace must keep the remote parent's sampled flag")
	}
	if jtr.Root.ParentID() != parent.SpanID {
		t.Error("joined root must parent the remote span")
	}

	// Default (nil): everything sampled.
	l2, _ := newUniLusail(Config{})
	_, _, tr2, err := l2.ExecuteTraced(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Root.Sampled() {
		t.Error("nil TraceSampling must sample every trace")
	}
}

// The subquery cache records hit and miss exemplars only for sampled
// traced executions, and CacheStats surfaces them on the subquery
// entry.
func TestSubqueryCacheExemplars(t *testing.T) {
	c := newSubqueryCache()
	rel := relOf(nil)

	// Untraced: no exemplars.
	if _, _, err := sqDo(c, "k", false, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	if hit, miss := c.Exemplars(); hit != nil || miss != nil {
		t.Fatal("untraced execution must not record exemplars")
	}

	// Sampled trace: miss then hit both pinned.
	tr := trace.New("query")
	ctx := trace.WithSpan(context.Background(), tr.Root)
	if _, _, err := reuseSubquery(ctx, c, "k2", nil, false, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reuseSubquery(ctx, c, "k2", nil, false, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	hit, miss := c.Exemplars()
	if miss == nil || miss.TraceID != tr.ID().String() {
		t.Fatalf("miss exemplar = %+v, want trace %s", miss, tr.ID())
	}
	if hit == nil || hit.TraceID != tr.ID().String() {
		t.Fatalf("hit exemplar = %+v, want trace %s", hit, tr.ID())
	}
	if time.Since(hit.At) > time.Minute {
		t.Error("exemplar timestamp must be recent")
	}

	// Unsampled trace: skipped (its spans never reach a collector).
	tr2 := trace.New("query")
	tr2.Root.SetSampled(false)
	ctx2 := trace.WithSpan(context.Background(), tr2.Root)
	if _, shared, err := reuseSubquery(ctx2, c, "k2", nil, false, func() (*Relation, error) { return rel, nil }); err != nil || !shared {
		t.Fatal("expected cached entry")
	}
	if hit, _ := c.Exemplars(); hit.TraceID == tr2.ID().String() {
		t.Error("unsampled trace must not overwrite exemplars")
	}

	// CacheStats carries the subquery cache's exemplars through.
	l, _ := newUniLusail(Config{SubqueryCacheSize: 16})
	if _, _, _, err := l.ExecuteTraced(context.Background(), testfed.Qa); err != nil {
		t.Fatal(err)
	}
	for _, e := range l.CacheStats() {
		if e.Name != "subquery" {
			continue
		}
		if e.MissExemplar == nil {
			t.Fatal("subquery cache stats must carry the miss exemplar after a cold traced query")
		}
	}
}
