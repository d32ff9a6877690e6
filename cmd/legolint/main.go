// Command legolint is the vettool that statically enforces the repo's
// campaign-determinism and hot-path contracts. Run it through the go
// command:
//
//	go build -o bin/legolint ./cmd/legolint
//	go vet -vettool=$(pwd)/bin/legolint ./...
//
// or simply `make lint`. Add -json for machine-readable output:
//
//	go vet -json -vettool=$(pwd)/bin/legolint ./...
//
// It ships seven analyzers. Four guard determinism — detrange, globalrand,
// walltime, panicdiscipline — and three guard the AST and throughput
// contracts with cross-package facts: nodeexhaustive (annotated type
// switches cover every sqlast node), hotalloc (//lego:hotpath functions do
// not allocate in loops), and bufretain (//lego:borrowed engine buffers are
// not retained by callers). Each finding is suppressible with
// `//lego:allow <analyzer> — <reason>`; bare or unused allows are
// themselves diagnostics. See internal/analysis and the "Static contracts"
// section of DESIGN.md.
package main

import (
	"github.com/seqfuzz/lego/internal/analysis/bufretain"
	"github.com/seqfuzz/lego/internal/analysis/detrange"
	"github.com/seqfuzz/lego/internal/analysis/globalrand"
	"github.com/seqfuzz/lego/internal/analysis/hotalloc"
	"github.com/seqfuzz/lego/internal/analysis/nodeexhaustive"
	"github.com/seqfuzz/lego/internal/analysis/panicdiscipline"
	"github.com/seqfuzz/lego/internal/analysis/unitchecker"
	"github.com/seqfuzz/lego/internal/analysis/walltime"
)

func main() {
	unitchecker.Main(
		detrange.Analyzer,
		globalrand.Analyzer,
		walltime.Analyzer,
		panicdiscipline.Analyzer,
		nodeexhaustive.Analyzer,
		hotalloc.Analyzer,
		bufretain.Analyzer,
	)
}
