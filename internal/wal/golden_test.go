package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The golden records pin the on-disk format byte for byte: a data
// directory written by an older build recovers under a newer one only
// while every record and the checkpoint keep the exact encoding below
// (frame header included). A change here is a format change, not a
// refactor.

// goldenCrack is a framed RecCrack record: predicates A in [-5, 100) and
// B == 3, projections A and C, disjunctive.
const goldenCrack = "000000135ac3a5499b259f840302014109c801010142060603020141014301"

var goldenRecords = []struct {
	rec Record
	hex string
}{
	{Record{Type: RecInsert, Width: 2, Vals: []Value{1, -2, 3, 1 << 40}}, "000000235ac3a579a0494eba0102040100000000000000feffffffffffffff03000000000000000000000000010000"},
	{Record{Type: RecDelete, Keys: []int{0, 7, 1 << 40}}, "0000000a5ac3a550b8820b7202030007808080808020"},
	{Record{Type: RecCheckpoint, Seq: 42}, "000000025ac3a558fe0e1e2d042a"},
}

const goldenCheckpoint = "000000515ac3a50bca23db3c0103015202014101420301000000000000000200000000000000fdffffffffffffff040000000000000005000000000000000000000000010000010101130302014109c801010142060603020141014301"

// crackFromGolden decodes goldenCrack and checks its fields, so the
// crack record is pinned in both directions.
func crackFromGolden(t *testing.T) Record {
	t.Helper()
	frame, _ := hex.DecodeString(goldenCrack)
	var recs []Record
	if _, err := Scan(frame, func(_ int64, rec Record) error { recs = append(recs, rec); return nil }); err != nil || len(recs) != 1 {
		t.Fatalf("golden crack record: %d records, err %v", len(recs), err)
	}
	rec := recs[0]
	if rec.Type != RecCrack || len(rec.Preds) != 2 || !rec.Disjunctive ||
		len(rec.Projs) != 2 || rec.Projs[0] != "A" || rec.Projs[1] != "C" {
		t.Fatalf("golden crack record decoded as %+v", rec)
	}
	a, b := rec.Preds[0], rec.Preds[1]
	if a.Attr != "A" || a.Pred.Lo != -5 || a.Pred.Hi != 100 || !a.Pred.LoIncl || a.Pred.HiIncl ||
		b.Attr != "B" || b.Pred.Lo != 3 || b.Pred.Hi != 3 || !b.Pred.LoIncl || !b.Pred.HiIncl {
		t.Fatalf("golden crack predicates decoded as %+v", rec.Preds)
	}
	if got := hex.EncodeToString(AppendRecord(nil, rec)); got != goldenCrack {
		t.Fatalf("crack record encoding changed\n got %s\nwant %s", got, goldenCrack)
	}
	return rec
}

func TestGoldenRecords(t *testing.T) {
	crackFromGolden(t)
	for _, g := range goldenRecords {
		got := hex.EncodeToString(AppendRecord(nil, g.rec))
		if got != g.hex {
			t.Errorf("%v: encoding changed\n got %s\nwant %s", g.rec.Type, got, g.hex)
			continue
		}
		frame, _ := hex.DecodeString(g.hex)
		var recs []Record
		if _, err := Scan(frame, func(_ int64, rec Record) error { recs = append(recs, rec); return nil }); err != nil || len(recs) != 1 {
			t.Errorf("%v: scan found %d records, err %v", g.rec.Type, len(recs), err)
			continue
		}
		if !recEqual(recs[0], g.rec) {
			t.Errorf("%v: decoded %+v, want %+v", g.rec.Type, recs[0], g.rec)
		}
	}
}

func TestGoldenCheckpoint(t *testing.T) {
	cp := &Checkpoint{
		Seq:   3,
		Name:  "R",
		Attrs: []string{"A", "B"},
		Cols:  [][]Value{{1, 2, -3}, {4, 5, 1 << 40}},
		Dead:  []int{1},
		Tape:  []Record{crackFromGolden(t)},
	}
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenCheckpoint {
		t.Fatalf("checkpoint encoding changed\n got %s\nwant %s", got, goldenCheckpoint)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.Name != "R" || len(got.Attrs) != 2 || got.Attrs[1] != "B" ||
		len(got.Cols) != 2 || got.Cols[1][2] != 1<<40 || len(got.Dead) != 1 || got.Dead[0] != 1 ||
		len(got.Tape) != 1 || !recEqual(got.Tape[0], cp.Tape[0]) {
		t.Fatalf("golden checkpoint decoded as %+v", got)
	}
}
