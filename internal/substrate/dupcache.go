package substrate

// Duplicate-request filtering, used by the Core on every substrate (and
// by rdmagm a second time, for verbs). Requests are identified
// cluster-wide by (originator rank, originator sequence number); both
// fields survive forwarding, so every node a request passes through can
// filter duplicates of it. udpgm needs this because UDP datagrams are
// retransmitted blindly on reply timeout; fastgm needs it because
// GM-level recovery can deliver a frame twice (the original is accepted
// from the receiver's park queue after the sender's resend timer already
// fired and triggered a retransmission); hedging needs it everywhere.

// DupKey identifies one request cluster-wide.
type DupKey struct {
	Origin int32
	Seq    uint32
}

// DupEntry records what this process did with a request, so a duplicate
// can be answered idempotently instead of re-executed.
type DupEntry struct {
	Done        bool   // a reply was sent
	Reply       []byte // the encoded cached reply (resent on duplicates)
	ReplyAux    []byte // the reply's causal-context metadata (resent with it)
	To          int    // reply destination rank
	ForwardedTo int    // where the request was relayed, or -1
	FwdAux      []byte // the forward's causal-context metadata (resent with it)
}

// DupCache is a fixed-capacity FIFO duplicate-request filter.
type DupCache struct {
	max   int
	m     map[DupKey]*DupEntry
	order []DupKey
}

// NewDupCache returns a cache retaining at most max entries (0 or
// negative: unbounded).
func NewDupCache(max int) *DupCache {
	return &DupCache{max: max, m: make(map[DupKey]*DupEntry)}
}

// Lookup returns the entry for k, if the request was seen before.
func (c *DupCache) Lookup(k DupKey) (*DupEntry, bool) {
	e, ok := c.m[k]
	return e, ok
}

// Insert records a fresh request and returns its (mutable) entry,
// evicting the oldest entry when at capacity.
func (c *DupCache) Insert(k DupKey) *DupEntry {
	if c.max > 0 && len(c.order) >= c.max {
		oldest := c.order[0]
		c.order = c.order[:copy(c.order, c.order[1:])]
		delete(c.m, oldest)
	}
	e := &DupEntry{ForwardedTo: -1}
	c.m[k] = e
	c.order = append(c.order, k)
	return e
}

// Len returns the number of retained entries.
func (c *DupCache) Len() int { return len(c.order) }

// PurgeOrigin removes every entry originated by the given rank and
// returns how many were dropped. Called when a member departs the
// cluster: a later joiner reusing the rank id restarts its sequence
// numbers, and a stale (origin, seq) hit would replay the old member's
// cached reply for a brand-new request.
func (c *DupCache) PurgeOrigin(origin int32) int {
	removed := 0
	kept := c.order[:0]
	for _, k := range c.order {
		if k.Origin == origin {
			delete(c.m, k)
			removed++
			continue
		}
		kept = append(kept, k)
	}
	c.order = kept
	return removed
}
