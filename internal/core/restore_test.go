package core

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestValueGobRoundTrip(t *testing.T) {
	vals := []Value{Null(), S("hello"), I(-42), F(3.25), B(true)}
	for _, v := range vals {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Fatalf("%v: encode: %v", v, err)
		}
		var got Value
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip: %v != %v", got, v)
		}
	}
	// Transactions (nested tuples) survive gob too.
	x := NewTransaction(xid("p", 3),
		Modify("F", Strs("a", "b", "c"), Strs("a", "b", "d"), "p"))
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(x); err != nil {
		t.Fatal(err)
	}
	var got Transaction
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != x.ID || !got.Updates[0].Equal(x.Updates[0]) {
		t.Errorf("transaction round trip: %v", &got)
	}
	var bad Value
	if err := bad.GobDecode([]byte{1, 2}); err == nil {
		t.Error("bad gob payload accepted")
	}
	if err := bad.GobDecode(append(S("x").appendEncoded(nil), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestProducerTracking(t *testing.T) {
	s := proteinSchema(t)
	e := NewEngine("p", s, TrustAll(1))
	x1 := mustLocal(t, e, Insert("F", Strs("rat", "p1", "v"), "p"))
	if got, ok := e.ProducerOf("F", Strs("rat", "p1", "v")); !ok || got != x1.ID {
		t.Errorf("producer = %v %v", got, ok)
	}
	x2 := mustLocal(t, e, Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p1", "w"), "p"))
	if _, ok := e.ProducerOf("F", Strs("rat", "p1", "v")); ok {
		t.Error("consumed value still has a producer")
	}
	if got, _ := e.ProducerOf("F", Strs("rat", "p1", "w")); got != x2.ID {
		t.Errorf("producer of new value = %v", got)
	}
	if antes := e.LocalAntecedents(x2.ID); len(antes) != 1 || antes[0] != x1.ID {
		t.Errorf("local antecedents = %v", antes)
	}
	if antes := e.LocalAntecedents(x1.ID); len(antes) != 0 {
		t.Errorf("insert antecedents = %v", antes)
	}
}

func TestRestoreDirect(t *testing.T) {
	s := proteinSchema(t)
	x1 := NewTransaction(xid("a", 0), Insert("F", Strs("rat", "p1", "v1"), "a"))
	x1.Order = 1
	x2 := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v1"), Strs("rat", "p1", "v2"), "b"))
	x2.Order = 2
	x3 := NewTransaction(xid("c", 0), Insert("F", Strs("rat", "p1", "zz"), "c"))
	x3.Order = 3
	xo := NewTransaction(xid("me", 5), Insert("F", Strs("mouse", "p2", "w"), "me"))
	xo.Order = 4

	log := []LoggedTxn{
		{Txn: x1}, {Txn: x2, Antecedents: []TxnID{x1.ID}}, {Txn: x3}, {Txn: xo},
	}
	decisions := map[TxnID]RestoredDecision{
		x1.ID: {Decision: DecisionAccept, Seq: 1},
		x2.ID: {Decision: DecisionAccept, Seq: 2},
		x3.ID: {Decision: DecisionReject, Seq: 3},
		xo.ID: {Decision: DecisionAccept, Seq: 4},
	}
	e := NewEngine("me", s, TrustAll(1))
	if err := e.Restore(log, decisions); err != nil {
		t.Fatal(err)
	}
	wantTuples(t, e.Instance(), "F",
		Strs("rat", "p1", "v2"), Strs("mouse", "p2", "w"))
	if !e.Applied(x1.ID) || !e.Applied(x2.ID) || !e.Applied(xo.ID) {
		t.Error("applied set incomplete")
	}
	if !e.Rejected(x3.ID) {
		t.Error("rejected set incomplete")
	}
	// Local sequence continues after the own txn's seq.
	nxt, err := e.NewLocalTransaction(Insert("F", Strs("dog", "p3", "q"), "me"))
	if err != nil {
		t.Fatal(err)
	}
	if nxt.ID.Seq != 6 {
		t.Errorf("next local seq = %d, want 6", nxt.ID.Seq)
	}
	// Restoring the same log again changes nothing: every entry is already
	// decided.
	before := e.Instance().Tuples("F")
	if err := e.Restore(log, decisions); err != nil {
		t.Fatal(err)
	}
	wantTuples(t, e.Instance(), "F", before...)
}

func TestRestoreAcceptanceOrderBeatsGlobalOrder(t *testing.T) {
	// The peer accepted its own modify before importing a later-published
	// identical insert; replay must follow acceptance order.
	s := proteinSchema(t)
	own0 := NewTransaction(xid("me", 0), Insert("F", Strs("rat", "p1", "f2"), "me"))
	own0.Order = 1
	own1 := NewTransaction(xid("me", 1), Modify("F", Strs("rat", "p1", "f2"), Strs("rat", "p1", "f1"), "me"))
	own1.Order = 3
	other := NewTransaction(xid("o", 0), Insert("F", Strs("rat", "p1", "f1"), "o"))
	other.Order = 2 // published between the peer's two own txns

	log := []LoggedTxn{{Txn: own0}, {Txn: other}, {Txn: own1, Antecedents: []TxnID{own0.ID}}}
	decisions := map[TxnID]RestoredDecision{
		own0.ID:  {Decision: DecisionAccept, Seq: 1},
		own1.ID:  {Decision: DecisionAccept, Seq: 2},
		other.ID: {Decision: DecisionAccept, Seq: 3}, // idempotent at acceptance time
	}
	e := NewEngine("me", s, TrustAll(1))
	if err := e.Restore(log, decisions); err != nil {
		t.Fatal(err)
	}
	wantTuples(t, e.Instance(), "F", Strs("rat", "p1", "f1"))
}

func TestRestoreRevertingExtensionAfterEarlierRevision(t *testing.T) {
	// The peer accepted c0:16 (atp→rna) on its own, and much later c5's
	// revise-and-revert pair as one extension. Live, that extension
	// flattened to no net effect on top of c0's rna; replay must apply it
	// as the same unit, not flatten it into one sequence with c0:16 (c5:18
	// would collide with the live rna) nor apply c5:18 alone (its source,
	// atp, is gone by then).
	s := proteinSchema(t)
	atp := Strs("candida", "P00025", "atp")
	rna := Strs("candida", "P00025", "rna")
	base := NewTransaction(xid("c1", 0), Insert("F", atp, "c1"))
	base.Order = 1
	c0 := NewTransaction(xid("c0", 16), Modify("F", atp, rna, "c0"))
	c0.Order = 2
	c5a := NewTransaction(xid("c5", 18), Modify("F", atp, rna, "c5"))
	c5a.Order = 3
	c5b := NewTransaction(xid("c5", 19), Modify("F", rna, atp, "c5"))
	c5b.Order = 4

	log := []LoggedTxn{
		{Txn: base},
		{Txn: c0, Antecedents: []TxnID{base.ID}},
		{Txn: c5a, Antecedents: []TxnID{base.ID}},
		{Txn: c5b, Antecedents: []TxnID{c5a.ID}},
	}
	decisions := map[TxnID]RestoredDecision{
		base.ID: {Decision: DecisionAccept, Seq: 1},
		c0.ID:   {Decision: DecisionAccept, Seq: 127},
		c5a.ID:  {Decision: DecisionAccept, Seq: 142},
		c5b.ID:  {Decision: DecisionAccept, Seq: 143},
	}
	e := NewEngine("me", s, TrustAll(1))
	if err := e.Restore(log, decisions); err != nil {
		t.Fatal(err)
	}
	wantTuples(t, e.Instance(), "F", rna)
	for _, x := range []*Transaction{base, c0, c5a, c5b} {
		if !e.Applied(x.ID) {
			t.Errorf("%s not applied", x.ID)
		}
	}
}

func TestConflictGroupString(t *testing.T) {
	g := &ConflictGroup{
		Conflict: Conflict{Type: ConflictKeyValue, Rel: "F", Value: Strs("rat", "p1").Encode()},
		Options: []*Option{
			{Txns: []TxnID{xid("a", 0)}, Effect: "+F(rat, p1, x; a)"},
		},
	}
	if got := g.String(); got == "" {
		t.Error("empty group string")
	}
	s := proteinSchema(t)
	e := NewEngine("p", s, TrustAll(1))
	if e.Instance().Schema() != s {
		t.Error("Instance.Schema accessor broken")
	}
}
