package wire

import (
	"reflect"
	"testing"
)

func TestCycleHeadRoundTrip(t *testing.T) {
	h := &CycleHead{Number: 42, TwoTier: true, NumDocs: 7, Catalog: []byte{1, 2, 3}, RootLabels: []string{"nitf", "x"}}
	data, err := h.Append(nil)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(data) != h.Size() {
		t.Fatalf("encoded head has %d bytes, Size says %d", len(data), h.Size())
	}
	back, err := DecodeCycleHead(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back, h) {
		t.Errorf("round trip = %+v, want %+v", back, h)
	}
	if _, err := (&CycleHead{Succinct: true}).Append(nil); err == nil {
		t.Error("a succinct one-tier head encoded")
	}
}

func TestDecodeCycleHeadErrors(t *testing.T) {
	tests := [][]byte{
		nil,
		{1, 2, 3},
		{1, 0, 0, 0, 1, 0, 0, 2, 5}, // truncated root label
	}
	for i, data := range tests {
		if _, err := DecodeCycleHead(data); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

// FuzzDecodeCycleHead must never panic, and what it accepts must re-encode
// and decode to the same head.
func FuzzDecodeCycleHead(f *testing.F) {
	good, err := (&CycleHead{Number: 3, TwoTier: true, NumDocs: 2, Catalog: []byte{9}, RootLabels: []string{"a"}}).Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	succ, err := (&CycleHead{Number: 4, TwoTier: true, Succinct: true, NumDocs: 1, Catalog: []byte{9}}).Append(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(succ)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 2, 0, 1, 3})
	f.Add([]byte{1, 0, 0, 0, 3, 2, 0, 0, 0, 0, 0, 0}) // organisation byte 3: unknown
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeCycleHead(data)
		if err != nil {
			return
		}
		back, err := h.Append(nil)
		if err != nil {
			t.Fatalf("re-encode of accepted head failed: %v", err)
		}
		if len(back) != h.Size() {
			t.Fatalf("re-encoded head has %d bytes, Size says %d", len(back), h.Size())
		}
		again, err := DecodeCycleHead(back)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, h) {
			t.Fatal("cycle head round trip unstable")
		}
	})
}
