// Package caller exercises the bufretain retention rules against the engine
// fixture's borrowed facts.
package caller

import "engine"

type keeper struct {
	res   []*engine.Result
	outs  []*engine.Outcome
	first *engine.Result
	rows  [][]int
	msgs  []string
	n     int
}

var global []error

// Retain stores borrowed buffers where they outlive the statement.
func Retain(k *keeper) {
	out := engine.Run()
	k.res = out.Results // want `borrowed buffer Outcome\.Results stored to a field or package-level variable`
	global = out.Errs   // want `borrowed buffer Outcome\.Errs stored to a field or package-level variable`
}

// Reslice shares the backing array; just as retained.
func Reslice(k *keeper) {
	out := engine.Run()
	k.res = out.Results[1:] // want `borrowed buffer Outcome\.Results stored to a field or package-level variable`
}

// RetainWhole stores the struct (pointer) carrying the borrowed fields.
func RetainWhole(k *keeper) {
	out := engine.Run()
	k.outs = append(k.outs, out) // want `value carrying borrowed field Outcome\.Results appended to another slice`
}

// Aggregate builds retained aggregates from borrowed values.
func Aggregate() [][]*engine.Result {
	out := engine.Run()
	var acc [][]*engine.Result
	acc = append(acc, out.Results)         // want `borrowed buffer Outcome\.Results appended to another slice`
	bad := [][]*engine.Result{out.Results} // want `borrowed buffer Outcome\.Results stored in a composite literal`
	return append(acc, bad...)
}

// RetainElements keeps what the buffer's elements point to: the engine
// reuses the Result objects and their rows too.
func RetainElements(k *keeper) {
	out := engine.Run()
	k.first = out.Results[0]                           // want `element of borrowed buffer Outcome\.Results stored to a field or package-level variable`
	k.res = append(k.res, out.Results[1])              // want `element of borrowed buffer Outcome\.Results stored to a field or package-level variable`
	k.rows = out.Results[0].Rows                       // want `element of borrowed buffer Outcome\.Results stored to a field or package-level variable`
	k.rows = append(k.rows, (*out.Results[0]).Rows...) // want `element of borrowed buffer Outcome\.Results stored to a field or package-level variable`
	k.res = append(k.res, out.Results...)              // want `borrowed buffer Outcome\.Results spread-appended to a field or package-level variable`
	k.res = []*engine.Result{out.Results[2]}           // want `element of borrowed buffer Outcome\.Results stored to a field or package-level variable`
}

// ReadOnly does everything the contract permits: clean.
func ReadOnly(k *keeper) int {
	out := engine.Run()
	n := out.Executed                                       // plain value field
	first := out.Results[0]                                 // element reads into locals die with the statement
	local := out.Results                                    // locals die with the statement scope
	copied := append([]*engine.Result(nil), out.Results...) // a local copy of the pointers
	k.msgs = append(k.msgs, out.Results[0].Msg)             // strings alias nothing
	k.n = out.Results[0].N                                  // nor do scalars
	k.msgs = append(k.msgs, render(out.Results[0]))         // the sanctioned pattern: render it
	k.rows = deepCopy(out.Results[0].Rows)                  // or deep-copy it
	return n + first.N + len(local) + len(copied)
}

func render(r *engine.Result) string { return r.Msg }

func deepCopy(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// Allowed retains deliberately and says why; the runner drops the Allowed
// finding.
func Allowed(k *keeper) {
	out := engine.Run()
	k.res = out.Results //lego:allow bufretain — single-shot CLI: the engine never runs again before exit
}
