// Package oracle collects and deduplicates crashes. The paper distinguishes
// bugs "from unique crashes by comparing the call stack" (§V-A); the oracle
// applies the same rule to the synthetic stacks carried by BugReports.
package oracle

import (
	"slices"
	"sort"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
)

// Crash is one deduplicated bug with the shortest known reproducer.
type Crash struct {
	Report *minidb.BugReport
	// Reproducer is the shortest test case known to trip this stack:
	// Record replaces it whenever the same stack recurs with a shorter
	// sequence, and triage may replace it with a ddmin-minimized one.
	Reproducer  sqlast.TestCase
	FoundAtExec int // execution count when first seen
	Hits        int // total times the same stack was observed

	// Triage results, filled by internal/triage at campaign end and
	// persisted in checkpoints. Zero values mean the crash has not been
	// triaged.
	Status       string // triage.Stable / Flaky / Lost, "" before triage
	OriginalLen  int    // statements in the reproducer before minimization
	MinimizedLen int    // statements after minimization
	Replays      int    // verification replays that reproduced the stack

	repro   string          // reproOf rendered
	reproOf sqlast.TestCase // the Reproducer repro renders
}

// ReproducerSQL returns the reproducer's script, rendering it only when
// Reproducer was replaced since the last call: a campaign exports every
// crash at every checkpoint snapshot. Reproducers are never written in
// place, only replaced by another test case.
func (c *Crash) ReproducerSQL() string {
	r := c.Reproducer
	if len(r) != len(c.reproOf) || len(r) > 0 && &r[0] != &c.reproOf[0] {
		c.repro, c.reproOf = r.SQL(), r
	}
	return c.repro
}

// Oracle deduplicates crashes by stack key.
type Oracle struct {
	seen  map[string]*Crash
	order []string
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{seen: map[string]*Crash{}}
}

// Record registers a crash. It returns true when the call stack was not seen
// before (a new unique bug). When the same stack recurs with a strictly
// shorter test case, the stored reproducer is replaced — the oracle always
// holds the shortest known reproducer per stack — while FoundAtExec keeps
// the first sighting and Hits counts every one.
func (o *Oracle) Record(r *minidb.BugReport, tc sqlast.TestCase, execs int) bool {
	key := r.StackKey()
	if c, ok := o.seen[key]; ok {
		c.Hits++
		if len(tc) < len(c.Reproducer) {
			c.Reproducer = tc
		}
		return false
	}
	o.seen[key] = &Crash{Report: r, Reproducer: tc, FoundAtExec: execs, Hits: 1}
	o.order = append(o.order, key)
	return true
}

// Import replaces the oracle's contents with crashes restored from a
// checkpoint, preserving discovery order and hit counts. Crashes with a
// duplicate stack key are folded into the first occurrence under the same
// invariants Record maintains: hits accumulate, the earliest FoundAtExec
// wins, and the shortest reproducer is kept.
func (o *Oracle) Import(crashes []*Crash) {
	o.seen = map[string]*Crash{}
	o.order = nil
	for _, c := range crashes {
		key := c.Report.StackKey()
		if prev, ok := o.seen[key]; ok {
			prev.Hits += c.Hits
			if len(c.Reproducer) < len(prev.Reproducer) {
				prev.Reproducer = c.Reproducer
			}
			if c.FoundAtExec < prev.FoundAtExec {
				prev.FoundAtExec = c.FoundAtExec
			}
			continue
		}
		o.seen[key] = c
		o.order = append(o.order, key)
	}
}

// Merge folds the crashes of others, in order, into o under Record's
// invariants: the epoch-barrier primitive that drains the shards' sightings
// into the campaign oracle. Hits accumulate, and a strictly shorter
// reproducer replaces the stored one, so on a tie the earlier merge or the
// earlier oracle in others wins. Keys new to o are appended in the order
// others hold them, as independent copies, so later mutation of o's entries
// (triage, shorter reproducers) never writes into others. FoundAtExec is
// fixed by the call that first merges a key — the smallest value among the
// others that hold it — and later calls never move it: sightings in later
// epochs count from each shard's own exec counter, not the campaign's.
func (o *Oracle) Merge(others ...*Oracle) {
	mark := len(o.order)
	for _, other := range others {
		for _, key := range other.order {
			c := other.seen[key]
			prev, ok := o.seen[key]
			if !ok {
				cp := *c
				o.seen[key] = &cp
				o.order = append(o.order, key)
				continue
			}
			prev.Hits += c.Hits
			if len(c.Reproducer) < len(prev.Reproducer) {
				prev.Reproducer = c.Reproducer
			}
			// Only keys this call appended (past mark) are still open.
			if c.FoundAtExec < prev.FoundAtExec && slices.Contains(o.order[mark:], key) {
				prev.FoundAtExec = c.FoundAtExec
			}
		}
	}
}

// Reset empties the oracle, keeping its storage for the next epoch's
// sightings.
func (o *Oracle) Reset() {
	clear(o.seen)
	o.order = o.order[:0]
}

// Count returns the number of unique bugs found.
func (o *Oracle) Count() int { return len(o.seen) }

// Crashes returns the unique crashes in discovery order.
func (o *Oracle) Crashes() []*Crash {
	out := make([]*Crash, 0, len(o.order))
	for _, k := range o.order {
		out = append(out, o.seen[k])
	}
	return out
}

// IDs returns the sorted bug identifiers found.
func (o *Oracle) IDs() []string {
	var ids []string
	for _, c := range o.Crashes() {
		ids = append(ids, c.Report.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByComponent tallies unique bugs per engine component.
func (o *Oracle) ByComponent() map[string]int {
	m := map[string]int{}
	for _, c := range o.Crashes() {
		m[c.Report.Component]++
	}
	return m
}

// ByKind tallies unique bugs per memory-safety class.
func (o *Oracle) ByKind() map[string]int {
	m := map[string]int{}
	for _, c := range o.Crashes() {
		m[c.Report.Kind]++
	}
	return m
}
