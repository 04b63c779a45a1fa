// Package tokenizer implements the deterministic small-vocabulary tokenizer
// shared by the synthetic datasets and the model zoo. It plays the role of
// the real models' BPE tokenizers: a fixed id space, a handful of special
// tokens, and — important for the SDC/Masked decision — synonym classes that
// let the campaign classifier recognise semantically equivalent answers
// ("There are 5 people" vs "The number of people is 5" in the paper).
package tokenizer

import (
	"fmt"
	"strings"
	"unicode"
)

// Special token ids. The vocabulary proper starts at FirstWordID.
const (
	PAD = iota
	BOS
	EOS
	UNK
	FirstWordID
)

// Tokenizer maps words to ids and back, and tracks synonym classes.
type Tokenizer struct {
	words   []string       // id-FirstWordID -> word
	ids     map[string]int // word -> id
	synonym map[int]int    // token id -> synonym class representative id
}

// New builds a tokenizer over the given word list. Duplicate words panic:
// the vocabulary is a fixed artifact, so a duplicate is a programming error.
func New(words []string) *Tokenizer {
	t := &Tokenizer{
		words:   append([]string(nil), words...),
		ids:     make(map[string]int, len(words)),
		synonym: make(map[int]int),
	}
	for i, w := range words {
		if _, dup := t.ids[w]; dup {
			panic(fmt.Sprintf("tokenizer: duplicate word %q", w))
		}
		t.ids[w] = FirstWordID + i
	}
	return t
}

// VocabSize returns the total id space (specials + words).
func (t *Tokenizer) VocabSize() int { return FirstWordID + len(t.words) }

// ID returns the id for word, or UNK if absent.
func (t *Tokenizer) ID(word string) int {
	if id, ok := t.ids[word]; ok {
		return id
	}
	return UNK
}

// Word returns the surface form of id.
func (t *Tokenizer) Word(id int) string {
	switch id {
	case PAD:
		return "<pad>"
	case BOS:
		return "<bos>"
	case EOS:
		return "<eos>"
	case UNK:
		return "<unk>"
	}
	idx := id - FirstWordID
	if idx < 0 || idx >= len(t.words) {
		return fmt.Sprintf("<bad:%d>", id)
	}
	return t.words[idx]
}

// Encode tokenizes a whitespace-separated string.
func (t *Tokenizer) Encode(s string) []int {
	fields := strings.Fields(s)
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		out = append(out, t.ID(f))
	}
	return out
}

// CountFields returns how many words Encode splits s into (the fields of
// strings.Fields), counting no further than limit, so a caller can refuse a
// text longer than it accepts without building its words.
func CountFields(s string, limit int) int {
	n, inWord := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inWord {
			if n++; n >= limit {
				return n
			}
		}
		inWord = !space
	}
	return n
}

// Decode renders token ids as a whitespace-joined string.
func (t *Tokenizer) Decode(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = t.Word(id)
	}
	return strings.Join(parts, " ")
}

// DeclareSynonyms marks all the given words as one semantic-equivalence
// class. Unknown words panic (same fixed-artifact rationale as New).
func (t *Tokenizer) DeclareSynonyms(words ...string) {
	if len(words) < 2 {
		panic("tokenizer: a synonym class needs at least two words")
	}
	rep := t.ID(words[0])
	if rep == UNK {
		panic(fmt.Sprintf("tokenizer: unknown synonym word %q", words[0]))
	}
	for _, w := range words {
		id := t.ID(w)
		if id == UNK {
			panic(fmt.Sprintf("tokenizer: unknown synonym word %q", w))
		}
		t.synonym[id] = rep
	}
}

// Canonical maps a token id to its synonym-class representative (itself if
// it belongs to no class).
func (t *Tokenizer) Canonical(id int) int {
	if rep, ok := t.synonym[id]; ok {
		return rep
	}
	return id
}

// Equivalent reports whether two token ids are semantically interchangeable.
func (t *Tokenizer) Equivalent(a, b int) bool {
	return a == b || t.Canonical(a) == t.Canonical(b)
}

// ContainsEquivalent reports whether haystack contains a contiguous
// subsequence semantically equivalent to needle. This is the paper's
// Masked/SDC rule: an output is masked if it (or an equivalent phrasing)
// still contains the reference answer.
func (t *Tokenizer) ContainsEquivalent(haystack, needle []int) bool {
	if len(needle) == 0 {
		return true
	}
	if len(haystack) < len(needle) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, n := range needle {
			if !t.Equivalent(haystack[i+j], n) {
				continue outer
			}
		}
		return true
	}
	return false
}
