package sim

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

// eventQueue is a binary min-heap of events ordered by (t, seq): q[i]
// fires no later than its children q[2i+1] and q[2i+2], and every queued
// event's index is its position.
type eventQueue []*Event

// before reports whether a fires before b.
func before(a, b *Event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// push queues e.
func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event { return q.remove(0) }

// remove takes the event at index i out of the queue and returns it.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	e := h[i]
	h[i] = h[n]
	h[n] = nil
	*q = h[:n]
	if i < n && !q.down(i) {
		q.up(i)
	}
	e.index = -1
	return e
}

// up moves q[i] toward the root until its parent fires before it.
func (q eventQueue) up(i int) {
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// down moves q[i] toward the leaves until it fires before both children,
// and reports whether it moved.
func (q eventQueue) down(i int) bool {
	e := q[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
	return i > i0
}

// peek returns the earliest pending event without removing it.
func (q eventQueue) peek() *Event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}
