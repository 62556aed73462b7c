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

// DupCacheSize bounds every duplicate filter — the core's per-process
// request filter and rdmagm's target-side verb filter: each retains at most
// this many entries.
const DupCacheSize = 1024

// DupCache is a fixed-capacity FIFO duplicate-request filter.
type DupCache struct {
	m     map[DupKey]*DupEntry
	order []DupKey
}

// NewDupCache returns a cache retaining at most DupCacheSize entries.
func NewDupCache() *DupCache {
	return &DupCache{m: make(map[DupKey]*DupEntry)}
}

// Lookup returns the entry for k, if the request was seen before.
func (c *DupCache) Lookup(k DupKey) (*DupEntry, bool) {
	e, ok := c.m[k]
	return e, ok
}

// Insert records a fresh request and returns its (mutable) entry,
// evicting the oldest entry when at capacity.
func (c *DupCache) Insert(k DupKey) *DupEntry {
	if len(c.order) >= DupCacheSize {
		oldest := c.order[0]
		c.order = c.order[:copy(c.order, c.order[1:])]
		delete(c.m, oldest)
	}
	e := &DupEntry{ForwardedTo: -1}
	c.m[k] = e
	c.order = append(c.order, k)
	return e
}
