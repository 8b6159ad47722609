package serve

// Unit tests of the admission queue: bound accounting, priority order,
// the blocking Pop the worker pool drains and the non-blocking TryPop a
// cluster coordinator's lease endpoint drains.

import (
	"testing"
	"time"
)

// TestFIFOQueueAccounting pins the admission arithmetic at the unit
// level: force-pushed items count toward the bound exactly like pushed
// ones.
func TestFIFOQueueAccounting(t *testing.T) {
	q := NewFIFOQueue(2)
	if !q.ForcePush("a", 0) || !q.ForcePush("b", 0) || !q.ForcePush("c", 0) {
		t.Fatal("ForcePush must not respect the bound")
	}
	if q.Push("d", 0) {
		t.Fatal("Push admitted over a force-filled queue")
	}
	if id, ok := q.Pop(); !ok || id != "a" {
		t.Fatalf("Pop = %q, %v; want \"a\", true", id, ok)
	}
	// Two remain — still at the bound of 2.
	if q.Push("d", 0) {
		t.Fatal("Push admitted at the bound")
	}
	q.Pop()
	if !q.Push("d", 0) {
		t.Fatal("Push refused under the bound")
	}
	if q.Depth() != 2 {
		t.Fatalf("depth %d, want 2", q.Depth())
	}
	q.Close()
	if q.Push("e", 0) || q.ForcePush("f", 0) {
		t.Fatal("pushes admitted after Close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop delivered after Close; close must win over queued items")
	}
}

// TestFIFOQueuePriorityOrder pins the scheduling contract: higher
// priorities pop first, arrival order breaks ties, and MaxPriority
// reports the queue head.
func TestFIFOQueuePriorityOrder(t *testing.T) {
	q := NewFIFOQueue(8)
	if _, ok := q.MaxPriority(); ok {
		t.Fatal("MaxPriority on an empty queue reported a value")
	}
	for _, it := range []struct {
		id  string
		pri int
	}{{"low1", 0}, {"high1", 5}, {"low2", 0}, {"mid", 3}, {"high2", 5}} {
		if !q.Push(it.id, it.pri) {
			t.Fatalf("push %q refused", it.id)
		}
	}
	if pri, ok := q.MaxPriority(); !ok || pri != 5 {
		t.Fatalf("MaxPriority = %d, %v; want 5, true", pri, ok)
	}
	for _, want := range []string{"high1", "high2", "mid", "low1", "low2"} {
		if id, ok := q.Pop(); !ok || id != want {
			t.Fatalf("Pop = %q, %v; want %q", id, ok, want)
		}
	}
}

// TestFIFOQueueTryPop: the non-blocking drain a cluster coordinator's
// lease endpoint uses keeps the admission contract (bounded Push, exempt
// ForcePush, priority-ordered drain) and reports Closed.
func TestFIFOQueueTryPop(t *testing.T) {
	q := NewFIFOQueue(2)
	if q.Cap() != 2 {
		t.Fatalf("Cap() = %d", q.Cap())
	}
	if !q.Push("a", 0) || !q.Push("b", 0) {
		t.Fatal("push under the bound refused")
	}
	if q.Push("c", 0) {
		t.Fatal("push over the bound admitted")
	}
	if !q.ForcePush("c", 0) {
		t.Fatal("ForcePush refused")
	}
	if q.Depth() != 3 {
		t.Fatalf("Depth() = %d", q.Depth())
	}
	// A late high-priority submission outranks the FIFO backlog, and
	// MaxPriority reports it while queued.
	if !q.ForcePush("urgent", 7) {
		t.Fatal("ForcePush refused")
	}
	if pri, ok := q.MaxPriority(); !ok || pri != 7 {
		t.Fatalf("MaxPriority = %d, %v; want 7, true", pri, ok)
	}
	for _, want := range []struct {
		id  string
		pri int
	}{{"urgent", 7}, {"a", 0}, {"b", 0}, {"c", 0}} {
		if id, pri, ok := q.TryPop(); !ok || id != want.id || pri != want.pri {
			t.Fatalf("TryPop = %q, %d, %v; want %q, %d", id, pri, ok, want.id, want.pri)
		}
	}
	if _, _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on an empty queue delivered")
	}
	if q.Closed() {
		t.Fatal("queue reports closed before Close")
	}
	q.Close()
	if !q.Closed() || q.Push("d", 0) || q.ForcePush("d", 0) {
		t.Fatal("closed queue still admitting")
	}
	if _, _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on a closed queue delivered")
	}
}

// TestFIFOQueuePopBlocks: a blocking Pop parks until a push arrives,
// and Close wakes it empty.
func TestFIFOQueuePopBlocks(t *testing.T) {
	q := NewFIFOQueue(4)
	got := make(chan string, 1)
	go func() {
		id, ok := q.Pop()
		if !ok {
			got <- ""
			return
		}
		got <- id
	}()
	time.Sleep(20 * time.Millisecond) // let Pop park
	if !q.Push("j1", 0) {
		t.Fatal("push refused")
	}
	select {
	case id := <-got:
		if id != "j1" {
			t.Fatalf("popped %q, want j1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop never woke")
	}

	go func() {
		_, ok := q.Pop()
		if ok {
			got <- "unexpected item"
			return
		}
		got <- "closed"
	}()
	time.Sleep(20 * time.Millisecond)
	q.Close()
	select {
	case r := <-got:
		if r != "closed" {
			t.Fatalf("Pop after Close: %s", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake Pop")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a closed queue returned an item")
	}
}
