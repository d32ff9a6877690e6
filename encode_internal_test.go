package lego

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"unicode/utf8"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/triage"
)

// TestEncodeMatchesMarshalOnCampaigns runs facade configurations the way
// FuzzWithOptions does, saving at every barrier, and holds every barrier
// snapshot's checkpoint encoding to json.Marshal's. Each seed entry a
// snapshot carries must also be json.Marshal's bytes for the script and
// fields it decodes to, and in the last snapshot the script of every pool
// seed's stored entry must be that seed's rendered test case. The configs
// cover one to three workers, a chaotic campaign with incidents, triage
// results and split seeds.
func TestEncodeMatchesMarshalOnCampaigns(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
		// need reports what the final snapshot must hold for the config to
		// exercise its feature.
		need func(*checkpoint.State) bool
	}{
		{"one-worker", Config{Target: MariaDB, Seed: 1}, nil},
		{"two-workers", Config{Target: PostgreSQL, Seed: 2, Workers: 2}, nil},
		{"three-workers", Config{Target: MySQL, Seed: 3, Workers: 3, FaultRate: 0.002}, nil},
		{"chaos", Config{Target: MariaDB, Seed: 4, Workers: 2, EpochStmts: 500, ChaosRate: 0.1},
			func(st *checkpoint.State) bool { return len(st.Incidents) > 0 }},
		{"triage", Config{Target: Comdb2, Seed: 5, Workers: 2, Triage: true},
			func(st *checkpoint.State) bool { return len(st.Crashes) > 0 && st.Crashes[0].Status != "" }},
		{"split", Config{Target: MySQL, Seed: 6, SplitLongSeeds: true, MaxSequenceLength: 3},
			func(st *checkpoint.State) bool {
				for _, s := range st.Seeds {
					if s.Split {
						return true
					}
				}
				return false
			}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			ex := shard.New(c.cfg.options())
			saves := 0
			_, err := ex.Run(20000, shard.RunOptions{EveryExecs: 1, Save: func(st *checkpoint.State) error {
				saves++
				return compareEncodings(st)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.Triage {
				ex.Triage(triage.Config{})
			}
			st := ex.Snapshot()
			if err := compareEncodings(st); err != nil {
				t.Fatal(err)
			}
			if saves < 5 {
				t.Fatalf("only %d barrier saves; the test needs several", saves)
			}
			if c.need != nil && !c.need(st) {
				t.Fatal("the campaign does not exercise what this config is for")
			}
			for i, sh := range ex.Shards() {
				for j, s := range sh.Pool().All() {
					sql, err := st.Seeds[st.Shards[i].Pool[j]].Script()
					if err != nil || sql != s.TC.SQL() {
						t.Fatalf("shard %d pool entry %d stores %q (%v), the seed renders %q", i, j, sql, err, s.TC.SQL())
					}
				}
			}
		})
	}
}

// compareEncodings reports how checkpoint.AppendState and json.Marshal
// disagree on st, and any seed entry that is not json.Marshal's bytes for
// the fields it decodes to.
func compareEncodings(st *checkpoint.State) error {
	want, err := json.Marshal(st)
	if err != nil {
		return err
	}
	got, err := checkpoint.AppendState(nil, st)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		return fmt.Errorf("epoch %d: encoder and json.Marshal differ at byte %d\ngot  …%.200s\nwant …%.200s", st.Epoch, n, got[n:], want[n:])
	}
	for k, s := range st.Seeds {
		var f checkpoint.Seed
		if err := json.Unmarshal([]byte(s.Entry), &f); err != nil {
			return fmt.Errorf("epoch %d: seed %d entry %q: %v", st.Epoch, k, s.Entry, err)
		}
		// Scripts are valid UTF-8, so decoding loses nothing.
		if !utf8.ValidString(f.SQL) {
			return fmt.Errorf("epoch %d: seed %d script is not valid UTF-8", st.Epoch, k)
		}
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		if string(b) != s.Entry || f.NewEdges != s.NewEdges || f.Split != s.Split {
			return fmt.Errorf("epoch %d: seed %d entry %q, json.Marshal of its fields %s", st.Epoch, k, s.Entry, b)
		}
	}
	return nil
}
