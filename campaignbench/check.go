package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"github.com/seqfuzz/lego"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlparse"
)

// checkKnownAnswers runs queries whose answers the benchmark computes itself
// over a table of seeded random rows, on a fresh database of the workload's
// dialect: minidb must compute right answers, not only avoid crashing.
func checkKnownAnswers(ck *checks, target lego.Target, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const rows = 96
	a, b := make([]int, rows), make([]int, rows)
	var insert strings.Builder
	insert.WriteString("INSERT INTO k VALUES ")
	for i := range a {
		a[i], b[i] = rng.Intn(2001)-1000, rng.Intn(8)
		if i > 0 {
			insert.WriteString(", ")
		}
		fmt.Fprintf(&insert, "(%d, %d)", a[i], b[i])
	}
	pivot, key := rng.Intn(2001)-1000, rng.Intn(8)

	sum, minB, maxB, above := 0, b[0], b[0], 0
	var keyed []int
	groups := make([]int, 8)
	for i := range a {
		sum += a[i]
		minB, maxB = min(minB, b[i]), max(maxB, b[i])
		if a[i] > pivot {
			above++
		}
		if b[i] == key {
			keyed = append(keyed, a[i])
		}
		groups[b[i]]++
	}
	sort.Ints(keyed)
	var grouped [][]string
	for v, n := range groups {
		if n > 0 {
			grouped = append(grouped, []string{strconv.Itoa(v), strconv.Itoa(n)})
		}
	}
	var keyedRows [][]string
	for _, v := range keyed {
		keyedRows = append(keyedRows, []string{strconv.Itoa(v)})
	}

	db := lego.Open(target)
	cases := []struct {
		sql  string
		want [][]string
	}{
		{"CREATE TABLE k (a INT, b INT)", nil},
		{insert.String(), nil},
		{"SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM k",
			[][]string{{strconv.Itoa(rows), strconv.Itoa(sum), strconv.Itoa(minB), strconv.Itoa(maxB)}}},
		{fmt.Sprintf("SELECT COUNT(*) FROM k WHERE a > %d", pivot), [][]string{{strconv.Itoa(above)}}},
		{fmt.Sprintf("SELECT a FROM k WHERE b = %d ORDER BY a", key), keyedRows},
		{"SELECT b, COUNT(*) FROM k GROUP BY b ORDER BY b", grouped},
		{fmt.Sprintf("UPDATE k SET a = a + 1 WHERE b = %d", key), nil},
		{"SELECT SUM(a) FROM k", [][]string{{strconv.Itoa(sum + len(keyed))}}},
		{fmt.Sprintf("DELETE FROM k WHERE b = %d", key), nil},
		{"SELECT COUNT(*) FROM k", [][]string{{strconv.Itoa(rows - len(keyed))}}},
	}
	for _, c := range cases {
		res, err := db.Exec(c.sql)
		if err != nil {
			ck.expect(false, "%s: %v", c.sql, err)
			continue
		}
		if c.want != nil {
			ck.expect(reflect.DeepEqual(res.Rows, c.want), "%s: got %v, want %v", c.sql, res.Rows, c.want)
		}
	}
}

// checkBugReplays demands that every reported bug's reproducer, run alone on
// a fresh engine with the bug corpus armed, crashes with the same bug.
func checkBugReplays(ck *checks, target lego.Target, bugs []lego.Bug) {
	for _, b := range bugs {
		ck.expect(replaysAs(target, b.Reproducer, b.ID), "bug %s does not replay from its reproducer", b.ID)
	}
}

func replaysAs(target lego.Target, sql, id string) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	tc, err := sqlparse.ParseScript(sql)
	if err != nil {
		return false
	}
	out := minidb.New(minidb.Config{Dialect: target, EnableHazards: true}).RunTestCase(tc)
	return out.Crash != nil && out.Crash.ID == id
}

// checkCheckpoints demands that two runs of one campaign leave byte-identical
// final checkpoints, and that resuming the checkpoint with the budget spent
// reports the campaign unchanged.
func checkCheckpoints(ck *checks, w workload, seed int64, path, again string, want lego.Report) {
	x, errX := os.ReadFile(path)
	y, errY := os.ReadFile(again)
	ck.expect(errX == nil && errY == nil && bytes.Equal(x, y), "campaign %d: checkpoints differ between runs", seed)
	f, err := lego.ResumeFuzzer(w.config(seed), path)
	if err != nil {
		ck.expect(false, "campaign %d: resume: %v", seed, err)
		return
	}
	ck.expect(reflect.DeepEqual(f.Fuzz(w.budget), want), "campaign %d: resumed report differs", seed)
}
