package pli

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
)

// TestPartitionSingleflightBuildsOnce is the regression test for the
// fromBestPrefix concurrency hole: before the sharded singleflight cache,
// two goroutines requesting the same uncached multi-column partition both
// paid the O(n) build. Now the first requester builds and everyone else
// waits on the published entry, so the build counter must read exactly 1.
func TestPartitionSingleflightBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := randomRelation(rng, 2000, 4, 6)
	c := NewPLICounter(r)
	x := bitset.New(0, 1, 2)
	want := r.DistinctCountSet(x)

	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	counts := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			counts[g] = c.Count(x)
		}(g)
	}
	close(start)
	wg.Wait()

	for g, got := range counts {
		if got != want {
			t.Fatalf("goroutine %d: count = %d, want %d", g, got, want)
		}
	}
	if builds := c.MultiColumnBuilds(); builds != 1 {
		t.Fatalf("%d goroutines triggered %d builds of the same partition, want 1", goroutines, builds)
	}
	// A later request must hit the cache, not rebuild.
	if c.Count(x) != want || c.MultiColumnBuilds() != 1 {
		t.Fatal("cached partition was rebuilt")
	}
}

// TestPartitionShardedConcurrentDistinctKeys hammers the cache with many
// goroutines across disjoint and overlapping attribute sets; every count
// must agree with the sequential oracle (run with -race in CI).
func TestPartitionShardedConcurrentDistinctKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(rng, 500, 8, 4)
	sets := make([]bitset.Set, 0, 40)
	want := make([]int, 0, 40)
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			x := bitset.New(a, b, (b+3)%8)
			sets = append(sets, x)
			want = append(want, r.DistinctCountSet(x))
		}
	}
	c := NewPLICounter(r)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sets {
				j := (i + g) % len(sets)
				if got := c.Count(sets[j]); got != want[j] {
					select {
					case errs <- sets[j].String():
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent count wrong for %s", bad)
	}
}

// TestChildPartitionMatchesDirectBuild: the search-aware fast path (one
// product off the parent partition) must produce exactly the partition a
// from-scratch fold produces, and memoise it.
func TestChildPartitionMatchesDirectBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		r := randomRelation(rng, 10+rng.Intn(200), 5, 2+rng.Intn(4))
		c := NewPLICounter(r)
		parentSet := bitset.New(0, 1)
		parent := c.Partition(parentSet)
		for attr := 2; attr < 5; attr++ {
			got := c.ChildPartition(parentSet, parent, attr)
			direct := FromSet(r, parentSet.With(attr))
			if !got.EqualPartition(direct) {
				t.Fatalf("iter %d: child partition for +%d differs from direct build", iter, attr)
			}
		}
		builds := c.MultiColumnBuilds()
		// Re-requesting through the generic path must hit the memoised
		// entries (no further builds).
		for attr := 2; attr < 5; attr++ {
			c.Count(parentSet.With(attr))
		}
		if c.MultiColumnBuilds() != builds {
			t.Fatalf("iter %d: ChildPartition results were not memoised", iter)
		}
	}
}

// TestChildPartitionOnIncrementalCounter: the session counter implements the
// same SearchCounter surface through its embedded PLI cache, including
// after appends invalidate the previous generation.
func TestChildPartitionOnIncrementalCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randomRelation(rng, 300, 4, 3)
	c := NewIncrementalCounter(r)
	var sc SearchCounter = c // compile-time interface check

	parentSet := bitset.New(0, 1)
	parent := sc.Partition(parentSet)
	child := sc.ChildPartition(parentSet, parent, 2)
	if !child.EqualPartition(FromSet(r, bitset.New(0, 1, 2))) {
		t.Fatal("incremental child partition wrong")
	}

	// Grow the relation; the next search must see the new rows.
	r.MustAppend(r.Row(0)...)
	r.MustAppend(r.Row(1)...)
	parent = sc.Partition(parentSet)
	child = sc.ChildPartition(parentSet, parent, 2)
	if !child.EqualPartition(FromSet(r, bitset.New(0, 1, 2))) {
		t.Fatal("incremental child partition stale after append")
	}
	if child.NumRows() != r.NumRows() {
		t.Fatalf("child rows = %d, want %d", child.NumRows(), r.NumRows())
	}
}

// TestPLICacheLRUKeepsHotEntries: a constantly re-touched entry must stay
// resident while a stream of cold entries overflows the bounded cache — the
// recency property FIFO eviction lacked (the hot key was inserted first, so
// FIFO would evict it at the first overflow of its shard).
func TestPLICacheLRUKeepsHotEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := randomRelation(rng, 60, 10, 3)
	c := NewPLICounterSize(r, 32) // two entries per shard
	hot := bitset.New(0, 1)
	c.Count(hot)
	// 84 cold keys (all pairs and triples over the other 8 columns) flood
	// every shard well past its bound; hot is refreshed after each one.
	for a := 2; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			c.Count(bitset.New(a, b))
			c.Count(hot)
			for d := b + 1; d < 10; d++ {
				c.Count(bitset.New(a, b, d))
				c.Count(hot)
			}
		}
	}
	builds := c.MultiColumnBuilds()
	c.Count(hot)
	if c.MultiColumnBuilds() != builds {
		t.Fatal("hot entry was evicted despite constant reuse")
	}
}
