package core

import (
	"testing"

	"netclus/internal/unionfind"
)

// TestLabelMergeSingletonCheap pins MergeInto's contract: merging a shard
// that never recorded a union must leave the destination untouched.
func TestLabelMergeSingletonCheap(t *testing.T) {
	n := 64
	dst := unionfind.New(n)
	dst.Union(1, 2)
	dst.Union(3, 4)
	before := dst.Sets()
	empty := unionfind.New(n)
	empty.MergeInto(dst)
	if dst.Sets() != before {
		t.Fatalf("merging an empty shard changed the set count: %d -> %d", before, dst.Sets())
	}
	if !dst.SameSet(1, 2) || !dst.SameSet(3, 4) || dst.SameSet(1, 3) {
		t.Fatal("merging an empty shard corrupted existing components")
	}
}
