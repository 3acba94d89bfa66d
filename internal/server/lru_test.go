package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2, nil, nil)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted below capacity")
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.add("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Errorf("a = %q, %v", v, ok)
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Errorf("c = %q, %v", v, ok)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestLRURefreshKeepsSingleEntry(t *testing.T) {
	c := newLRU(4, nil, nil)
	c.add("k", []byte("v1"))
	c.add("k", []byte("v2"))
	if c.len() != 1 {
		t.Fatalf("len = %d after refresh, want 1", c.len())
	}
	if v, _ := c.get("k"); string(v) != "v2" {
		t.Errorf("refresh kept stale body %q", v)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRU(0, nil, nil)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if c.len() != 1 {
		t.Errorf("len = %d, want 1 (capacity clamps to 1)", c.len())
	}
}

// TestLRUConcurrent hammers the cache from many goroutines; run under
// -race this pins the locking discipline.
func TestLRUConcurrent(t *testing.T) {
	c := newLRU(8, nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				if _, ok := c.get(key); !ok {
					c.add(key, []byte(key))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 8 {
		t.Errorf("len = %d exceeds capacity", c.len())
	}
}
