package tmk

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// callLog records every call its process posts with CallBegin.
type callLog struct {
	substrate.Transport
	calls []substrate.Pending
}

func (c *callLog) CallBegin(p *sim.Proc, dst int, req *msg.Message) substrate.Pending {
	pd := c.Transport.CallBegin(p, dst, req)
	c.calls = append(c.calls, pd)
	return pd
}

// TestDistributeIsOneRoundTrip: a new region costs one parallel round per
// Distribute round, not one round trip per peer. On rdmagm, where every
// rank pins the whole region as its window before it acks, AllocShared of
// a 256-page region costs rank 0 one pin plus a few round trips (logged
// beside a KPing to the farthest peer), less than half a pin more, at 4
// and at 16 nodes — announced peer by peer it cost n pins. On fastgm every
// one of the n−1 announcements is posted before the first ack comes back.
func TestDistributeIsOneRoundTrip(t *testing.T) {
	const pages = 256
	params := gm.DefaultParams()
	pin := params.RegisterBase + pages*params.RegisterPerPage
	for _, n := range []int{4, 16} {
		var rtt, alloc sim.Time
		_, err := Run(DefaultConfig(n, TransportRDMAGM), func(tp *Proc) {
			if tp.Rank() == 0 {
				start := tp.Now()
				tp.call(n-1, blocked("ping"), &msg.Message{Kind: msg.KPing})
				rtt = tp.Now() - start
				start = tp.Now()
				tp.AllocShared(pages * PageSize)
				alloc = tp.Now() - start
			} else {
				tp.AllocShared(pages * PageSize)
			}
			tp.Barrier(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("rdmagm, %d nodes: AllocShared %v, one pin %v, one round trip %v", n, alloc, pin, rtt)
		if alloc < pin || alloc > pin+pin/2 {
			t.Errorf("rdmagm, %d nodes: AllocShared of %d pages took %v, want one %v pin plus round trips worth less than half of it",
				n, pages, alloc, pin)
		}

		var log *callLog
		_, err = Run(DefaultConfig(n, TransportFastGM), func(tp *Proc) {
			if tp.Rank() == 0 {
				log = &callLog{Transport: tp.tr}
				tp.tr = log
			}
			tp.AllocShared(pages * PageSize)
			tp.Barrier(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		var announced []substrate.Pending
		for _, pd := range log.calls {
			if pd.Reply() != nil && pd.Reply().Kind == msg.KAck {
				announced = append(announced, pd)
			}
		}
		if len(announced) != n-1 {
			t.Fatalf("fastgm, %d nodes: %d announcements posted with CallBegin, want %d", n, len(announced), n-1)
		}
		lastPosted, firstAck := announced[0].Issued(), announced[0].Completed()
		for _, pd := range announced {
			lastPosted, firstAck = max(lastPosted, pd.Issued()), min(firstAck, pd.Completed())
		}
		if lastPosted >= firstAck {
			t.Errorf("fastgm, %d nodes: the last announcement left at %v, after the first ack at %v", n, lastPosted, firstAck)
		}
	}
}
