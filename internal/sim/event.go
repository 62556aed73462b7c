package sim

import "container/heap"

// Event is a scheduled callback. Events fire in (time, sequence) order;
// the sequence number makes ties deterministic (FIFO among equal times).
//
// The simulator owns every Event. At hands out none: the Event returns to
// the free list the moment it fires. A Timer's Event belongs to whoever
// armed it until that holder hands it back with Release, exactly once,
// fired or not — so a reused Event never has a second holder.
type Event struct {
	t      Time
	seq    uint64
	fn     func()
	index  int  // heap index, -1 once popped
	pooled bool // an At event: the simulator recycles it when it fires
}

// eventQueue is a min-heap of events ordered by (t, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1 // popped
	*q = old[:n-1]
	return e
}

func (q *eventQueue) push(e *Event) { heap.Push(q, e) }

func (q *eventQueue) pop() *Event { return heap.Pop(q).(*Event) }

// peek returns the earliest pending event without removing it.
func (q eventQueue) peek() *Event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}
