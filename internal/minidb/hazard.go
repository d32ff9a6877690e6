package minidb

import (
	"fmt"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// BugReport is the crash artefact raised when a seeded hazard fires. It
// plays the role of an ASAN report from the instrumented DBMS: it carries a
// stable identifier, the component the bug lives in, a memory-safety bug
// class, and a synthetic call stack that the oracle uses for deduplication
// (the paper dedups "unique crashes by comparing the call stack").
type BugReport struct {
	ID        string
	Dialect   sqlt.Dialect
	Component string
	Kind      string // UAF, BOF, SBOF, HBOF, AF, SEGV, UAP, NPD, UB
	Stack     []string
	Window    sqlt.Sequence // the type window at crash time
}

// Error implements error so reports flow through error-handling paths too.
func (b *BugReport) Error() string {
	return fmt.Sprintf("%s: %s in %s/%s [%s]", b.Kind, b.ID, b.Dialect, b.Component,
		strings.Join(b.Stack, " <- "))
}

// StackKey is the deduplication key (the call-stack comparison).
func (b *BugReport) StackKey() string {
	return b.Dialect.String() + "|" + strings.Join(b.Stack, "|")
}

// condFn is a predicate over engine state evaluated when a bug's type
// pattern matches. lastErr is the SQL error of the statement that completed
// the pattern (nil on success).
type condFn func(e *Engine, lastErr error) bool

// Bug is one seeded hazard: it fires when the most recent executed statement
// types end with Pattern and Cond holds. A nil Pattern marks bugs raised
// manually from engine code paths (e.g. the rewrite-component case study).
type Bug struct {
	ID        string
	Component string
	Kind      string
	Pattern   []sqlt.Type
	Cond      condFn
	Stack     []string
}

// hazardsArmed reports whether the seeded bug corpus is active.
func (e *Engine) hazardsArmed() bool { return e.hazards != nil }

// raiseBug panics with the bug's report, simulating the process-killing
// crash an ASAN abort produces.
func (e *Engine) raiseBug(b *Bug) {
	panic(&BugReport{
		ID:        b.ID,
		Dialect:   e.cfg.Dialect,
		Component: b.Component,
		Kind:      b.Kind,
		Stack:     b.Stack,
		Window:    append(sqlt.Sequence(nil), e.typeWindow...),
	})
}

// hazardIndex buckets a dialect's window-matched hazards by the last type
// of their pattern, each bucket in corpus order. Only a hazard whose
// pattern ends with the type just executed can match, so checking that
// statement's bucket raises the same first bug as scanning the corpus.
type hazardIndex [sqlt.NumTypes + 1][]*Bug

// hazardIndexes holds each dialect's index, built once: engines share them.
var hazardIndexes = func() map[sqlt.Dialect]*hazardIndex {
	out := map[sqlt.Dialect]*hazardIndex{}
	for _, d := range sqlt.Dialects() {
		ix := &hazardIndex{}
		for _, b := range bugsFor(d) {
			if len(b.Pattern) == 0 {
				continue // manually raised
			}
			last := b.Pattern[len(b.Pattern)-1]
			ix[last] = append(ix[last], b)
		}
		out[d] = ix
	}
	return out
}()

// checkHazards evaluates the hazards whose pattern ends with t, the type of
// the statement just executed, in corpus order, and raises the first that
// matches.
//
//lego:hotpath
func (e *Engine) checkHazards(t sqlt.Type, lastErr error) {
	if e.hazards == nil {
		return
	}
	for _, b := range e.hazards[t] {
		if !e.windowEndsWith(b.Pattern) {
			continue
		}
		if b.Cond != nil && !b.Cond(e, lastErr) {
			continue
		}
		e.raiseBug(b)
	}
}

// windowEndsWith reports whether the executed-type window ends with pat.
func (e *Engine) windowEndsWith(pat []sqlt.Type) bool {
	if len(e.typeWindow) < len(pat) {
		return false
	}
	off := len(e.typeWindow) - len(pat)
	for i, t := range pat {
		if e.typeWindow[off+i] != t {
			return false
		}
	}
	return true
}

// --- condition library -----------------------------------------------------

func cAlways(*Engine, error) bool { return true }

// cErr holds when the pattern-completing statement returned a SQL error —
// reachable by mutation fuzzers whose mutated statements often fail, but
// rarely by rule-based generators that emit only valid SQL.
func cErr(_ *Engine, lastErr error) bool { return lastErr != nil }

// cOK holds when the statement succeeded.
func cOK(_ *Engine, lastErr error) bool { return lastErr == nil }

// cTables holds when at least n tables exist.
func cTables(n int) condFn {
	return func(e *Engine, _ error) bool { return len(e.cat.Tables) >= n }
}

// cRows holds when total stored rows reach n.
func cRows(n int) condFn {
	return func(e *Engine, _ error) bool {
		total := 0
		for _, t := range e.cat.Tables {
			total += len(t.Rows)
		}
		return total >= n
	}
}

// cEmptyTable holds when some table exists with zero rows.
func cEmptyTable(e *Engine, _ error) bool {
	for _, t := range e.cat.Tables {
		if len(t.Rows) == 0 {
			return true
		}
	}
	return false
}

func cTrigger(e *Engine, _ error) bool { return len(e.cat.Triggers) > 0 }
func cIndex(e *Engine, _ error) bool   { return len(e.cat.Indexes) > 0 }
func cView(e *Engine, _ error) bool    { return len(e.cat.Views) > 0 }
func cRule(e *Engine, _ error) bool    { return len(e.cat.Rules) > 0 }
func cInTxn(e *Engine, _ error) bool   { return e.inTxn() }
func cNoTxn(e *Engine, _ error) bool   { return !e.inTxn() }
func cPrepared(e *Engine, _ error) bool {
	return len(e.sess.prepared) > 0
}
func cCursor(e *Engine, _ error) bool {
	return len(e.sess.cursors) > 0
}
func cListening(e *Engine, _ error) bool {
	return len(e.sess.listening) > 0
}
func cRole(e *Engine, _ error) bool { return e.sess.role != "" }
func cSeq(e *Engine, _ error) bool  { return len(e.cat.Sequences) > 0 }
func cFunc(e *Engine, _ error) bool { return len(e.cat.Functions) > 0 }

// cAnd combines conditions conjunctively.
func cAnd(cs ...condFn) condFn {
	return func(e *Engine, lastErr error) bool {
		for _, c := range cs {
			if !c(e, lastErr) {
				return false
			}
		}
		return true
	}
}
