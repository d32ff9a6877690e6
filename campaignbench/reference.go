package main

import (
	"sort"
	"strconv"
	"time"
)

// referenceSecs is what one round of reference work is scaled to: stmts_per_s
// is throughput on a host that does the reference work in this many seconds.
const referenceSecs = 0.1

// refNode is a record of the reference work.
type refNode struct {
	key  string
	val  int
	next *refNode
}

// refSink keeps the reference work's result live.
var refSink int

// referenceWork runs a fixed amount of work of the kinds the fuzzer's hot
// path does — building short strings, hashing them into maps, allocating
// small linked records, sorting and chasing pointers — and returns its wall
// time in seconds. It calls nothing in the repository, so no change to the
// program moves it: only the speed the host gives the benchmark does. It
// allocates about 20 MB, so the collector runs during it as it does during a
// campaign.
func referenceWork() float64 {
	start := time.Now()
	acc := 0
	for round := 0; round < 48; round++ {
		const n = 4096
		m := make(map[string]*refNode, n)
		nodes := make([]*refNode, 0, n)
		var prev *refNode
		for i := 0; i < n; i++ {
			k := "k" + strconv.Itoa(i*7919%n) + "_" + strconv.Itoa(round)
			nd := &refNode{key: k, val: i ^ round, next: prev}
			m[k] = nd
			nodes = append(nodes, nd)
			prev = nd
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].key < nodes[b].key })
		for i := 0; i < n; i++ {
			if nd, ok := m["k"+strconv.Itoa(i)+"_"+strconv.Itoa(round)]; ok {
				acc += nd.val
			}
		}
		for nd := prev; nd != nil; nd = nd.next {
			acc += len(nd.key)
		}
	}
	refSink = acc
	return time.Since(start).Seconds()
}
