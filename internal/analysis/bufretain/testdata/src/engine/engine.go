// Package engine is the buffer owner for the bufretain fixtures: it hands
// out an Outcome whose slices are re-sliced on the next Run.
package engine

// Result is one statement's result; it and its rows are engine-owned too.
type Result struct {
	N    int
	Msg  string
	Rows [][]int
}

// Outcome is one run's outcome; its slices alias engine-owned buffers.
type Outcome struct {
	// Results holds per-statement results.
	//
	//lego:borrowed valid until the next Run on the same engine
	Results []*Result
	// Errs holds per-statement errors.
	//
	//lego:borrowed valid until the next Run on the same engine
	Errs []error
	// Executed counts executed statements; plain value, freely copyable.
	Executed int
}

var pool Outcome

// Run executes and returns the pooled outcome; the owner may manage its own
// buffers without diagnostics.
func Run() *Outcome {
	pool.Results = pool.Results[:0]
	pool.Errs = pool.Errs[:0]
	pool.Executed = 0
	return &pool
}

// local demonstrates the keyability requirement: fields of function-local
// struct types cannot carry facts.
func local() {
	type scratch struct {
		//lego:borrowed local scratch
		buf []byte // want `//lego:borrowed requires a field of a package-level struct type`
	}
	_ = scratch{}
}

var _ = local
