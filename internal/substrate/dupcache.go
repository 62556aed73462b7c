package substrate

// Duplicate-request filtering, used by the Core on every substrate (and
// by rdmagm a second time, for verbs). Requests are identified
// cluster-wide by (originator rank, originator sequence number); both
// fields survive forwarding, so every node a request passes through can
// filter duplicates of it. udpgm needs this because UDP datagrams are
// retransmitted blindly on reply timeout; fastgm needs it because
// GM-level recovery can deliver a frame twice (the original is accepted
// from the receiver's park queue after the sender's resend timer already
// fired and triggered a retransmission).

// DupKey identifies one request cluster-wide.
type DupKey struct {
	Origin int32
	Seq    uint32
}

// DupEntry records what this process did with a request, so a duplicate
// can be answered idempotently instead of re-executed. An entry is a slot
// of its cache's ring: it owns the storage Reply sits in — a reply is
// encoded into what Reply holds when the entry is inserted — which the
// request that takes the slot next writes its own reply into.
type DupEntry struct {
	Reply       []byte // the encoded cached reply (resent on duplicates), in the slot's storage
	ReplySpan   uint64 // the reply's causal trace span (resent with it)
	To          int    // reply destination rank
	ForwardedTo int    // where the request was relayed, or -1
	FwdSpan     uint64 // the forward's causal trace span (resent with it)

	// more holds the frames after the first of a reply continued across
	// frames (Reply is the first): nil until the slot first caches one,
	// empty for a one-frame reply.
	more *moreFrames

	key DupKey
	// sending counts the transmits reading Reply right now (Core.sendReply).
	// It is the slot's, not the entry's: a transmit can park, and if the
	// ring comes round to the slot meanwhile, its storage goes with the
	// reply being read and the next entry grows storage of its own.
	sending int32
	Done    bool // a reply was sent, every frame of it
}

// moreFrames is the storage of a continued reply's frames after its
// first, in frame order: each frame's encoding and causal trace span. A
// slot keeps it, and each frame's storage, for the replies it caches next.
type moreFrames struct {
	bodies [][]byte
	spans  []uint64
}

// reset empties the list, keeping every frame's storage.
func (mf *moreFrames) reset() {
	mf.bodies, mf.spans = mf.bodies[:0], mf.spans[:0]
}

// DupCacheSize bounds every duplicate filter — the core's per-process
// request filter and rdmagm's target-side verb filter: each retains at most
// this many entries.
const DupCacheSize = 1024

// dupChunk is how many slots the ring adds at a time while it fills.
const dupChunk = 64

// DupCache is a fixed-capacity FIFO duplicate-request filter: a ring of
// DupCacheSize slots, made dupChunk at a time as it first fills, in which
// each insert at capacity takes over the oldest slot.
type DupCache struct {
	m      map[DupKey]*DupEntry
	chunks [][]DupEntry
	n      int // slots in use: DupCacheSize once the ring is full
	oldest int // the slot the next insert at capacity takes over
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

// slot returns ring slot i, making its chunk the first time it is reached.
func (c *DupCache) slot(i int) *DupEntry {
	if i/dupChunk == len(c.chunks) {
		c.chunks = append(c.chunks, make([]DupEntry, dupChunk))
	}
	return &c.chunks[i/dupChunk][i%dupChunk]
}

// Insert records a fresh request and returns its (mutable) entry, taking
// over the oldest entry's slot when at capacity. The slot keeps its reply
// storage, every frame's; everything else starts over.
func (c *DupCache) Insert(k DupKey) *DupEntry {
	var e *DupEntry
	if c.n < DupCacheSize {
		e = c.slot(c.n)
		c.n++
	} else {
		e = c.slot(c.oldest)
		c.oldest = (c.oldest + 1) % DupCacheSize
		delete(c.m, e.key)
	}
	fresh := DupEntry{ForwardedTo: -1, key: k, sending: e.sending}
	if e.sending == 0 {
		fresh.Reply, fresh.more = e.Reply[:0], e.more
		if fresh.more != nil {
			fresh.more.reset()
		}
	}
	*e = fresh
	c.m[k] = e
	return e
}
