package recycle

import "testing"

func TestPoolGetAndDrop(t *testing.T) {
	p := NewPool[[4]int]()
	x := p.Get()
	if x == nil || *x != [4]int{} {
		t.Fatalf("an empty pool returned %v, want a new zero value", x)
	}
	x[0] = 7
	p.Put(x)
	Drop()
	if y := p.Get(); y == x || *y != [4]int{} {
		t.Fatal("a value released before Drop was handed out again")
	}
}
