package tokenizer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newTest() *Tokenizer {
	t := New([]string{"the", "cat", "sat", "mat", "five", "5", "people", "persons"})
	t.DeclareSynonyms("five", "5")
	t.DeclareSynonyms("people", "persons")
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tk := newTest()
	ids := tk.Encode("the cat sat")
	if len(ids) != 3 {
		t.Fatalf("Encode length %d", len(ids))
	}
	if tk.Decode(ids) != "the cat sat" {
		t.Errorf("round trip failed: %q", tk.Decode(ids))
	}
}

func TestUnknownWords(t *testing.T) {
	tk := newTest()
	if tk.ID("zebra") != UNK {
		t.Error("unknown word must map to UNK")
	}
	if tk.Word(UNK) != "<unk>" || tk.Word(BOS) != "<bos>" || tk.Word(EOS) != "<eos>" || tk.Word(PAD) != "<pad>" {
		t.Error("special token surface forms wrong")
	}
	if tk.Word(99999) == "" {
		t.Error("out-of-range id should render a diagnostic")
	}
}

func TestVocabSize(t *testing.T) {
	tk := newTest()
	if tk.VocabSize() != FirstWordID+8 {
		t.Errorf("VocabSize = %d", tk.VocabSize())
	}
}

func TestDuplicateWordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate word must panic")
		}
	}()
	New([]string{"a", "a"})
}

func TestSynonyms(t *testing.T) {
	tk := newTest()
	five, num5 := tk.ID("five"), tk.ID("5")
	if !tk.Equivalent(five, num5) {
		t.Error("five and 5 must be equivalent")
	}
	if !tk.Equivalent(five, five) {
		t.Error("identity equivalence")
	}
	if tk.Equivalent(five, tk.ID("cat")) {
		t.Error("five and cat must not be equivalent")
	}
	if tk.Canonical(num5) != five && tk.Canonical(num5) != num5 {
		t.Error("Canonical must map within the class")
	}
	if tk.Canonical(tk.ID("cat")) != tk.ID("cat") {
		t.Error("Canonical of unclassed word is itself")
	}
}

func TestDeclareSynonymsPanics(t *testing.T) {
	tk := newTest()
	for _, words := range [][]string{{"five"}, {"five", "zebra"}, {"zebra", "five"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DeclareSynonyms(%v) must panic", words)
				}
			}()
			tk.DeclareSynonyms(words...)
		}()
	}
}

func TestContainsEquivalent(t *testing.T) {
	tk := newTest()
	hay := tk.Encode("the cat sat five people")
	if !tk.ContainsEquivalent(hay, tk.Encode("five people")) {
		t.Error("exact subsequence must match")
	}
	if !tk.ContainsEquivalent(hay, tk.Encode("5 persons")) {
		t.Error("synonym subsequence must match")
	}
	if tk.ContainsEquivalent(hay, tk.Encode("five mat")) {
		t.Error("non-subsequence must not match")
	}
	if !tk.ContainsEquivalent(hay, nil) {
		t.Error("empty needle always matches")
	}
	if tk.ContainsEquivalent(tk.Encode("cat"), hay) {
		t.Error("needle longer than haystack must not match")
	}
}

// Property: any contiguous slice of a sequence is contained in it.
func TestContainsEquivalentProperty(t *testing.T) {
	tk := newTest()
	f := func(raw []uint8, lo, ln uint8) bool {
		seq := make([]int, len(raw))
		for i, r := range raw {
			seq[i] = FirstWordID + int(r)%8
		}
		if len(seq) == 0 {
			return true
		}
		start := int(lo) % len(seq)
		end := start + int(ln)%(len(seq)-start+1)
		return tk.ContainsEquivalent(seq, seq[start:end])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountFieldsMatchesFields: over random strings of ASCII and Unicode
// spaces, letters and invalid UTF-8 bytes, CountFields is the number of
// strings.Fields, capped at the limit.
func TestCountFieldsMatchesFields(t *testing.T) {
	parts := []string{" ", "\t", "\n", "\u00a0", "\u0085", "\u2003", "a", "bc", "é", "\xb6", "\xff\xfe"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(parts[rng.Intn(len(parts))])
		}
		s, limit := sb.String(), 1+rng.Intn(12)
		if got, want := CountFields(s, limit), min(len(strings.Fields(s)), limit); got != want {
			t.Fatalf("CountFields(%q, %d) = %d, want %d", s, limit, got, want)
		}
	}
}
