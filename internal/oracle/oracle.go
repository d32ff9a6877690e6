// Package oracle collects and deduplicates crashes. The paper distinguishes
// bugs "from unique crashes by comparing the call stack" (§V-A); the oracle
// applies the same rule to the synthetic stacks carried by BugReports.
package oracle

import (
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

// Merge folds every crash of other into o under Record's invariants, the
// epoch-barrier primitive that builds the sharded executor's global crash
// view. For a stack key o already holds: hits accumulate, the shortest
// reproducer wins, the earliest FoundAtExec wins, and triage results are
// adopted when o's entry has none. New keys are appended in other's
// discovery order as independent copies, so later mutation of o's entries
// (triage, shorter reproducers) never writes into other.
func (o *Oracle) Merge(other *Oracle) {
	for _, c := range other.Crashes() {
		key := c.Report.StackKey()
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
		if c.FoundAtExec < prev.FoundAtExec {
			prev.FoundAtExec = c.FoundAtExec
		}
		if prev.Status == "" && c.Status != "" {
			prev.Status = c.Status
			prev.OriginalLen = c.OriginalLen
			prev.MinimizedLen = c.MinimizedLen
			prev.Replays = c.Replays
		}
	}
}

// Adopt registers a crash discovered by a sibling campaign shard so this
// oracle can deduplicate future local sightings against it. The adopted copy
// keeps Hits at zero — the sighting already counts in the sibling's oracle,
// and a later global Merge sums hits across shards, so seeding them here
// would double-count. A known stack key only adopts a shorter reproducer.
// It returns whether the stack key was new to this oracle.
func (o *Oracle) Adopt(c *Crash) bool {
	key := c.Report.StackKey()
	if prev, ok := o.seen[key]; ok {
		if len(c.Reproducer) < len(prev.Reproducer) {
			prev.Reproducer = c.Reproducer
		}
		return false
	}
	cp := *c
	cp.Hits = 0
	o.seen[key] = &cp
	o.order = append(o.order, key)
	return true
}

// AdoptTriage copies the triage results of c, an entry of a merged crash
// view, onto this oracle's entry for the same stack: Status, OriginalLen,
// MinimizedLen and Replays, and the reproducer when c's is shorter. A
// stack this oracle never saw is ignored. Copying the results back into
// every shard lets the next barrier's rebuild of the merged view keep them.
func (o *Oracle) AdoptTriage(c *Crash) {
	prev, ok := o.seen[c.Report.StackKey()]
	if !ok {
		return
	}
	prev.Status = c.Status
	prev.OriginalLen = c.OriginalLen
	prev.MinimizedLen = c.MinimizedLen
	prev.Replays = c.Replays
	if len(c.Reproducer) < len(prev.Reproducer) {
		prev.Reproducer = c.Reproducer
	}
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
