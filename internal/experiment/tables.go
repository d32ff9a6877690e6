package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Table1Result reproduces Table I: vulnerabilities found by LEGO in
// continuous fuzzing, grouped by DBMS and component.
type Table1Result struct {
	// Found maps dialect -> component -> bug kind -> count.
	Found map[sqlt.Dialect]map[string]map[string]int
	// IDs maps dialect -> component -> identifiers.
	IDs map[sqlt.Dialect]map[string][]string
	// PerDialect is the bug total per dialect (paper: 6/21/42/33).
	PerDialect map[sqlt.Dialect]int
	// Total is the overall unique bug count (paper: 102).
	Total int
	// Seeded is the per-dialect seeded corpus size, for the coverage ratio.
	Seeded map[sqlt.Dialect]int
}

// table1Instances is the number of independent campaigns unioned per
// dialect: the paper's continuous fuzzing runs many single-core instances
// for weeks, so bugs are the union over a fleet, not one run.
const table1Instances = 3

// Table1 runs LEGO's continuous-fuzzing campaigns on every dialect and
// unions the bugs found across instances.
func Table1(b Budgets) Table1Result {
	res := Table1Result{
		Found:      map[sqlt.Dialect]map[string]map[string]int{},
		IDs:        map[sqlt.Dialect]map[string][]string{},
		PerDialect: map[sqlt.Dialect]int{},
		Seeded:     map[sqlt.Dialect]int{},
	}
	for d, bugs := range minidb.AllBugs() {
		res.Seeded[d] = len(bugs)
	}
	for _, d := range sqlt.Dialects() {
		comp := map[string]map[string]int{}
		ids := map[string][]string{}
		seen := map[string]bool{}
		for inst := 0; inst < table1Instances; inst++ {
			cr := RunCampaign(FuzzerLEGO, d, b.ContinuousStmts, b.Seed+int64(1000*inst), 0)
			for _, c := range cr.Crashes {
				if seen[c.Report.ID] {
					continue
				}
				seen[c.Report.ID] = true
				if comp[c.Report.Component] == nil {
					comp[c.Report.Component] = map[string]int{}
				}
				comp[c.Report.Component][c.Report.Kind]++
				ids[c.Report.Component] = append(ids[c.Report.Component], c.Report.ID)
			}
		}
		res.Found[d] = comp
		res.IDs[d] = ids
		res.PerDialect[d] = len(seen)
		res.Total += len(seen)
	}
	return res
}

// Format renders the result in the paper's Table I layout.
func (t Table1Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table I: vulnerabilities discovered by LEGO in continuous fuzzing\n")
	var rows [][]string
	for _, d := range sqlt.Dialects() {
		comps := make([]string, 0, len(t.Found[d]))
		for c := range t.Found[d] {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		for _, c := range comps {
			kinds := t.Found[d][c]
			var parts []string
			for _, k := range sortedKeys(kinds) {
				parts = append(parts, fmt.Sprintf("%s(%d)", k, kinds[k]))
			}
			idList := t.IDs[d][c]
			sort.Strings(idList)
			idStr := strings.Join(idList, ", ")
			if len(idStr) > 60 {
				idStr = idStr[:57] + "..."
			}
			rows = append(rows, []string{d.String(), c, strings.Join(parts, ", "), idStr})
		}
	}
	sb.WriteString(formatTable([]string{"DBMS", "Component", "Bug Type and Number", "Identifier"}, rows))
	sb.WriteString(fmt.Sprintf("\nTotal: %d bugs found", t.Total))
	for _, d := range sqlt.Dialects() {
		sb.WriteString(fmt.Sprintf("  %s %d/%d", d, t.PerDialect[d], t.Seeded[d]))
	}
	sb.WriteString("\nPaper: 102 bugs (PostgreSQL 6, MySQL 21, MariaDB 42, Comdb2 33)\n")
	return sb.String()
}

// Figure9Result reproduces Figure 9: branches covered per fuzzer per DBMS.
type Figure9Result struct {
	// Branches maps dialect -> fuzzer -> final branch count (-1 where the
	// fuzzer does not support the dialect, as SQLsmith outside PostgreSQL).
	Branches map[sqlt.Dialect]map[FuzzerName]int
	// Curves keeps the coverage-over-executions series for plotting.
	Curves map[sqlt.Dialect]map[FuzzerName][]CurvePoint
}

// figure9Fuzzers lists the comparison set in the paper's legend order.
var figure9Fuzzers = []FuzzerName{FuzzerLEGO, FuzzerSquirrel, FuzzerSQLancer, FuzzerSQLsmith}

// Figure9 runs the 24-hour-scale comparison.
func Figure9(b Budgets) Figure9Result {
	res := Figure9Result{
		Branches: map[sqlt.Dialect]map[FuzzerName]int{},
		Curves:   map[sqlt.Dialect]map[FuzzerName][]CurvePoint{},
	}
	for _, d := range sqlt.Dialects() {
		res.Branches[d] = map[FuzzerName]int{}
		res.Curves[d] = map[FuzzerName][]CurvePoint{}
		for _, f := range figure9Fuzzers {
			if f == FuzzerSQLsmith && d != sqlt.DialectPostgres {
				res.Branches[d][f] = -1 // unsupported, as in the paper
				continue
			}
			cr := RunCampaign(f, d, b.DayStmts, b.Seed, 0)
			res.Branches[d][f] = cr.Branches
			res.Curves[d][f] = cr.Curve
		}
	}
	return res
}

// Format renders final branch counts plus the LEGO-vs-baseline ratios the
// paper reports (LEGO covered 198%/44%/120% more than SQLancer/SQLsmith/
// SQUIRREL on average).
func (f Figure9Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: branches covered in the fixed-budget comparison\n")
	header := []string{"DBMS"}
	for _, fz := range figure9Fuzzers {
		header = append(header, string(fz))
	}
	var rows [][]string
	for _, d := range sqlt.Dialects() {
		row := []string{d.String()}
		for _, fz := range figure9Fuzzers {
			v := f.Branches[d][fz]
			if v < 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%d", v))
			}
		}
		rows = append(rows, row)
	}
	sb.WriteString(formatTable(header, rows))

	// average improvement ratios
	for _, base := range []FuzzerName{FuzzerSQLancer, FuzzerSQLsmith, FuzzerSquirrel} {
		var ratios []float64
		for _, d := range sqlt.Dialects() {
			lego := f.Branches[d][FuzzerLEGO]
			bv := f.Branches[d][base]
			if bv > 0 {
				ratios = append(ratios, float64(lego-bv)/float64(bv)*100)
			}
		}
		if len(ratios) > 0 {
			var sum float64
			for _, r := range ratios {
				sum += r
			}
			sb.WriteString(fmt.Sprintf("LEGO vs %-8s: +%.0f%% branches on average\n", base, sum/float64(len(ratios))))
		}
	}
	sb.WriteString("Paper: LEGO covered 198%/44%/120% more than SQLancer/SQLsmith/SQUIRREL.\n")
	return sb.String()
}

// WriteCurvesCSV renders the coverage-over-executions series of every
// campaign as CSV (dialect,fuzzer,execs,branches), the data behind the paper's
// Figure 9 line plot.
func (f Figure9Result) WriteCurvesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "dialect,fuzzer,execs,branches"); err != nil {
		return err
	}
	for _, d := range sqlt.Dialects() {
		for _, fz := range figure9Fuzzers {
			for _, p := range f.Curves[d][fz] {
				if _, err := fmt.Fprintf(w, "%s,%s,%d,%d\n", d, fz, p.Execs, p.Branches); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Table2Result reproduces Table II: type-affinities contained in the test
// cases each fuzzer generated. SQLsmith is excluded, as in the paper
// ("it contains only one statement per test case").
type Table2Result struct {
	Affinities map[sqlt.Dialect]map[FuzzerName]int
}

var table2Fuzzers = []FuzzerName{FuzzerSQLancer, FuzzerSquirrel, FuzzerLEGO}

// Table2 runs the generated-affinity comparison.
func Table2(b Budgets) Table2Result {
	res := Table2Result{Affinities: map[sqlt.Dialect]map[FuzzerName]int{}}
	for _, d := range sqlt.Dialects() {
		res.Affinities[d] = map[FuzzerName]int{}
		for _, f := range table2Fuzzers {
			cr := RunCampaign(f, d, b.DayStmts, b.Seed, 0)
			res.Affinities[d][f] = cr.GenAffinities
		}
	}
	return res
}

// Totals returns the per-fuzzer affinity totals.
func (t Table2Result) Totals() map[FuzzerName]int {
	tot := map[FuzzerName]int{}
	for _, perF := range t.Affinities {
		for f, n := range perF {
			tot[f] += n
		}
	}
	return tot
}

// Format renders the paper's Table II layout.
func (t Table2Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table II: type-affinities contained in generated test cases\n")
	header := []string{"DBMS", "SQLancer", "SQUIRREL", "LEGO"}
	var rows [][]string
	for _, d := range sqlt.Dialects() {
		rows = append(rows, []string{
			d.String(),
			fmt.Sprintf("%d", t.Affinities[d][FuzzerSQLancer]),
			fmt.Sprintf("%d", t.Affinities[d][FuzzerSquirrel]),
			fmt.Sprintf("%d", t.Affinities[d][FuzzerLEGO]),
		})
	}
	tot := t.Totals()
	rows = append(rows, []string{"Total",
		fmt.Sprintf("%d", tot[FuzzerSQLancer]),
		fmt.Sprintf("%d", tot[FuzzerSquirrel]),
		fmt.Sprintf("%d", tot[FuzzerLEGO])})
	sb.WriteString(formatTable(header, rows))
	sb.WriteString("Paper totals: SQLancer 770, SQUIRREL 119, LEGO 3707.\n")
	return sb.String()
}

// Table3Result reproduces Table III: bugs triggered in the fixed-budget
// campaigns.
type Table3Result struct {
	Bugs map[sqlt.Dialect]map[FuzzerName]int
	IDs  map[sqlt.Dialect]map[FuzzerName][]string
}

var table3Fuzzers = []FuzzerName{FuzzerSQLancer, FuzzerSQLsmith, FuzzerSquirrel, FuzzerLEGO}

// Table3 runs the bug-count comparison.
func Table3(b Budgets) Table3Result {
	res := Table3Result{
		Bugs: map[sqlt.Dialect]map[FuzzerName]int{},
		IDs:  map[sqlt.Dialect]map[FuzzerName][]string{},
	}
	for _, d := range sqlt.Dialects() {
		res.Bugs[d] = map[FuzzerName]int{}
		res.IDs[d] = map[FuzzerName][]string{}
		for _, f := range table3Fuzzers {
			if f == FuzzerSQLsmith && d != sqlt.DialectPostgres {
				res.Bugs[d][f] = -1
				continue
			}
			cr := RunCampaign(f, d, b.DayStmts, b.Seed, 0)
			res.Bugs[d][f] = cr.Bugs()
			for _, c := range cr.Crashes {
				res.IDs[d][f] = append(res.IDs[d][f], c.Report.ID)
			}
		}
	}
	return res
}

// Totals returns per-fuzzer bug totals (SQLsmith's "-" entries count 0).
func (t Table3Result) Totals() map[FuzzerName]int {
	tot := map[FuzzerName]int{}
	for _, perF := range t.Bugs {
		for f, n := range perF {
			if n > 0 {
				tot[f] += n
			}
		}
	}
	return tot
}

// Format renders the paper's Table III layout.
func (t Table3Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table III: bugs triggered in the fixed-budget comparison\n")
	header := []string{"DBMS", "SQLancer", "SQLsmith", "SQUIRREL", "LEGO"}
	var rows [][]string
	cell := func(v int) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	for _, d := range sqlt.Dialects() {
		rows = append(rows, []string{
			d.String(),
			cell(t.Bugs[d][FuzzerSQLancer]),
			cell(t.Bugs[d][FuzzerSQLsmith]),
			cell(t.Bugs[d][FuzzerSquirrel]),
			cell(t.Bugs[d][FuzzerLEGO]),
		})
	}
	tot := t.Totals()
	rows = append(rows, []string{"Total",
		cell(tot[FuzzerSQLancer]), cell(tot[FuzzerSQLsmith]),
		cell(tot[FuzzerSquirrel]), cell(tot[FuzzerLEGO])})
	sb.WriteString(formatTable(header, rows))
	sb.WriteString("Paper: SQLancer 0, SQLsmith 0, SQUIRREL 11 (3 MySQL + 8 MariaDB), LEGO 52.\n")
	return sb.String()
}

// Table4Result reproduces Table IV: the LEGO- ablation.
type Table4Result struct {
	Types    map[sqlt.Dialect]int
	AffMinus map[sqlt.Dialect]int
	AffLego  map[sqlt.Dialect]int
	BrMinus  map[sqlt.Dialect]int
	BrLego   map[sqlt.Dialect]int
}

// Table4 runs LEGO vs LEGO- on every dialect.
func Table4(b Budgets) Table4Result {
	res := Table4Result{
		Types:    map[sqlt.Dialect]int{},
		AffMinus: map[sqlt.Dialect]int{},
		AffLego:  map[sqlt.Dialect]int{},
		BrMinus:  map[sqlt.Dialect]int{},
		BrLego:   map[sqlt.Dialect]int{},
	}
	for _, d := range sqlt.Dialects() {
		res.Types[d] = d.NumStatementTypes()
		minus := RunCampaign(FuzzerLEGOMinus, d, b.DayStmts, b.Seed, 0)
		lego := RunCampaign(FuzzerLEGO, d, b.DayStmts, b.Seed, 0)
		res.AffMinus[d] = minus.GenAffinities
		res.AffLego[d] = lego.GenAffinities
		res.BrMinus[d] = minus.Branches
		res.BrLego[d] = lego.Branches
	}
	return res
}

// Format renders the paper's Table IV layout.
func (t Table4Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table IV: LEGO- vs LEGO (ablation of the sequence-oriented algorithms)\n")
	header := []string{"DBMS", "Types", "Aff(LEGO-)", "Aff(LEGO)", "Incr", "Br(LEGO-)", "Br(LEGO)", "Improv"}
	var rows [][]string
	for _, d := range sqlt.Dialects() {
		rows = append(rows, []string{
			d.String(),
			fmt.Sprintf("%d", t.Types[d]),
			fmt.Sprintf("%d", t.AffMinus[d]),
			fmt.Sprintf("%d", t.AffLego[d]),
			fmt.Sprintf("%d", t.AffLego[d]-t.AffMinus[d]),
			fmt.Sprintf("%d", t.BrMinus[d]),
			fmt.Sprintf("%d", t.BrLego[d]),
			pct(t.BrLego[d], t.BrMinus[d]),
		})
	}
	sb.WriteString(formatTable(header, rows))
	sb.WriteString("Paper: improvements 20%/15%/25%/7% on PostgreSQL/MySQL/MariaDB/Comdb2;\n" +
		"more statement types correlate with larger affinity increments and coverage gains.\n")
	return sb.String()
}

// LengthStudyResult reproduces the §VI sequence-length discussion: bugs
// found on MariaDB with LEN in {3, 5, 8}. Bug counts are totalled over
// Repeats independent campaigns (single campaigns are too noisy to resolve
// the paper's 30/35/27 hump).
type LengthStudyResult struct {
	Lens    []int
	Repeats int
	// Bugs is the total unique-bug count across repeats per length.
	Bugs map[int]int
}

// LengthStudy sweeps the sequence-length cap.
func LengthStudy(b Budgets) LengthStudyResult {
	res := LengthStudyResult{Lens: []int{3, 5, 8}, Repeats: 3, Bugs: map[int]int{}}
	for _, l := range res.Lens {
		for rep := 0; rep < res.Repeats; rep++ {
			cr := RunCampaign(FuzzerLEGO, sqlt.DialectMariaDB, b.DayStmts,
				b.Seed+int64(100*rep+l), l)
			res.Bugs[l] += cr.Bugs()
		}
	}
	return res
}

// Format renders the length study.
func (t LengthStudyResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sequence-length study (MariaDB): bugs found per LEN (sum of %d campaigns)\n", t.Repeats)
	var rows [][]string
	for _, l := range t.Lens {
		rows = append(rows, []string{fmt.Sprintf("LEN=%d", l), fmt.Sprintf("%d", t.Bugs[l])})
	}
	sb.WriteString(formatTable([]string{"Length", "Bugs"}, rows))
	sb.WriteString("Paper: 30/35/27 bugs for LEN=3/5/8 — the middle length wins.\n")
	return sb.String()
}
