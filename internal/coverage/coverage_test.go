package coverage

import (
	"testing"
	"testing/quick"
)

func TestSiteRegistration(t *testing.T) {
	s := NewSite("test.site.a")
	if s.Name() != "test.site.a" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestEdgeNovelty(t *testing.T) {
	a := NewSite("cov.a")
	b := NewSite("cov.b")
	c := NewSite("cov.c")

	m := NewMap()
	tr := NewTracer()

	tr.Hit(a)
	tr.Hit(b)
	novel, newEdges := m.Accumulate(tr)
	if !novel || newEdges == 0 {
		t.Fatal("first execution must be novel")
	}
	first := m.EdgeCount()

	// identical re-execution: no novelty
	tr.Reset()
	tr.Hit(a)
	tr.Hit(b)
	if novel, _ := m.Accumulate(tr); novel {
		t.Fatal("identical execution must not be novel")
	}
	if m.EdgeCount() != first {
		t.Fatal("edge count must not grow")
	}

	// a new path is novel
	tr.Reset()
	tr.Hit(a)
	tr.Hit(c)
	if novel, _ := m.Accumulate(tr); !novel {
		t.Fatal("new edge must be novel")
	}
	if m.EdgeCount() <= first {
		t.Fatal("edge count must grow")
	}
}

func TestOrderSensitivity(t *testing.T) {
	// The whole point of edge coverage: A->B differs from B->A.
	a := NewSite("cov.order.a")
	b := NewSite("cov.order.b")
	m := NewMap()

	tr := NewTracer()
	tr.Hit(a)
	tr.Hit(b)
	m.Accumulate(tr)
	n1 := m.EdgeCount()

	tr.Reset()
	tr.Hit(b)
	tr.Hit(a)
	novel, _ := m.Accumulate(tr)
	if !novel || m.EdgeCount() <= n1 {
		t.Fatal("reversed order must produce new edges")
	}
}

func TestHitCountBucketing(t *testing.T) {
	a := NewSite("cov.bucket.a")
	b := NewSite("cov.bucket.b")
	m := NewMap()

	run := func(n int) bool {
		tr := NewTracer()
		for i := 0; i < n; i++ {
			tr.Hit(a)
			tr.Hit(b)
		}
		novel, _ := m.Accumulate(tr)
		return novel
	}
	if !run(1) {
		t.Fatal("count 1 is a new bucket")
	}
	if run(1) {
		t.Fatal("count 1 again is not novel")
	}
	if !run(2) {
		t.Fatal("count 2 is a new bucket")
	}
	if !run(5) {
		t.Fatal("count 5 (bucket 4-7) is a new bucket")
	}
	if run(6) {
		t.Fatal("count 6 shares the 4-7 bucket")
	}
}

func TestTracerReset(t *testing.T) {
	a := NewSite("cov.reset.a")
	tr := NewTracer()
	tr.Hit(a)
	tr.Hit(a)
	if tr.Edges() == 0 {
		t.Fatal("edges recorded")
	}
	tr.Reset()
	if tr.Edges() != 0 {
		t.Fatal("reset must clear edges")
	}
	// after reset, the same hits yield the same edges (prev cleared)
	tr.Hit(a)
	e1 := tr.Edges()
	tr.Reset()
	tr.Hit(a)
	if tr.Edges() != e1 {
		t.Fatal("reset must restore initial prev state")
	}
}

func TestDeterminism(t *testing.T) {
	a := NewSite("cov.det.a")
	b := NewSite("cov.det.b")
	run := func() int {
		m := NewMap()
		tr := NewTracer()
		for i := 0; i < 10; i++ {
			tr.Hit(a)
			tr.Hit(b)
		}
		m.Accumulate(tr)
		return m.EdgeCount()
	}
	if run() != run() {
		t.Fatal("coverage must be deterministic")
	}
}

// Property: accumulating the same tracer twice is idempotent.
func TestAccumulateIdempotent(t *testing.T) {
	sites := []Site{NewSite("cov.q.1"), NewSite("cov.q.2"), NewSite("cov.q.3"), NewSite("cov.q.4")}
	f := func(path []uint8) bool {
		tr := NewTracer()
		for _, p := range path {
			tr.Hit(sites[int(p)%len(sites)])
		}
		m := NewMap()
		m.Accumulate(tr)
		n := m.EdgeCount()
		novel, _ := m.Accumulate(tr)
		return !novel && m.EdgeCount() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
