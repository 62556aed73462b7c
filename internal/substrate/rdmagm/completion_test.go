package rdmagm

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/sim"
)

// TestCompletionRetryChainsDoNotMultiply: a Get is serviced while the
// target's completion pool is dry, so its completion re-arms on compRetry;
// the initiator's retransmissions redeliver the verb meanwhile. Each
// redelivery used to start a retry chain of its own, and every chain sent
// its copy the moment a buffer freed — redeliveries + 1 copies of one 4 KB
// completion at once. With one queued send per cached completion the dry
// spell ends in exactly one.
func TestCompletionRetryChainsDoNotMultiply(t *testing.T) {
	const redeliveries = 6
	fuzzCluster(t, func(p *sim.Proc, target, initiator *Transport) {
		get := &verbFrame{op: frameVerbGet, origin: 1, seq: 7, window: 1, length: 4096}
		frame := make([]byte, verbFrameLen(get))
		encodeVerb(frame, get)
		compLen := int64(len(encodeCompletion(nil, 0, get, compOK, make([]byte, get.length), 0)))
		sends := func() int64 { return target.Stats().BytesSent / compLen }

		var held []*gm.Buffer
		for buf := target.compPool.TryTake(int(compLen)); buf != nil; buf = target.compPool.TryTake(int(compLen)) {
			held = append(held, buf)
		}
		for i := 0; i <= redeliveries; i++ {
			target.onVerbFrame(deliver(p, target.node, 1, VerbPort, frame))
			p.Advance(3 * compRetry)
		}
		if n := sends(); n != 0 {
			t.Fatalf("%d completions sent from a dry pool", n)
		}
		for _, buf := range held {
			target.compPool.Put(buf)
		}
		p.Advance(sim.Millisecond)
		if n := sends(); n != 1 {
			t.Errorf("the dry spell ended in %d completion sends, want 1", n)
		}
		// A redelivery with nothing queued is answered at once: that
		// completion may really have been lost.
		target.onVerbFrame(deliver(p, target.node, 1, VerbPort, frame))
		p.Advance(sim.Millisecond)
		if n := sends(); n != 2 {
			t.Errorf("%d completion sends after one more redelivery, want 2", n)
		}
		if len(target.compQueued) != 0 {
			t.Errorf("%d completions still marked queued", len(target.compQueued))
		}
	})
}
