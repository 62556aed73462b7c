package tmk_test

import (
	"testing"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// The shared fault table: every case injects a specific failure mode —
// socket-level datagram loss, fabric-level packet loss, payload
// corruption, or a timed link blackout — into one of the two transports
// and asserts both correctness (the DSM results are exact) and the
// recovery-counter invariants the chaos harness relies on.

// stripeWorkload writes a strided pattern across ranks and verifies it
// after a barrier, for `rounds` rounds.
func stripeWorkload(slots, rounds int) (func(tp *tmk.Proc), func(t *testing.T)) {
	errs := make(chan string, 64)
	app := func(tp *tmk.Proc) {
		r := tp.AllocShared(slots * 8)
		tp.Barrier(1)
		n := tp.NProcs()
		for round := 0; round < rounds; round++ {
			for i := tp.Rank(); i < slots; i += n {
				tp.WriteF64(r, i, float64(round*slots+i))
			}
			tp.Barrier(int32(10 + round))
			for i := 0; i < slots; i += 7 {
				if got := tp.ReadF64(r, i); got != float64(round*slots+i) {
					select {
					case errs <- "bad slot value":
					default:
					}
				}
			}
			tp.Barrier(int32(100 + round))
		}
	}
	check := func(t *testing.T) {
		select {
		case e := <-errs:
			t.Error(e)
		default:
		}
	}
	return app, check
}

// lockWorkload increments a shared counter under a lock from every rank.
func lockWorkload(perRank int) (func(tp *tmk.Proc), func(t *testing.T)) {
	errs := make(chan string, 64)
	app := func(tp *tmk.Proc) {
		r := tp.AllocShared(8)
		tp.Barrier(1)
		for k := 0; k < perRank; k++ {
			tp.LockAcquire(0)
			tp.WriteF64(r, 0, tp.ReadF64(r, 0)+1)
			tp.LockRelease(0)
		}
		tp.Barrier(2)
		if got := tp.ReadF64(r, 0); got != float64(perRank*tp.NProcs()) {
			select {
			case errs <- "bad counter value":
			default:
			}
		}
	}
	check := func(t *testing.T) {
		select {
		case e := <-errs:
			t.Error(e)
		default:
		}
	}
	return app, check
}

// requireAllPortsEnabled asserts the residual-damage invariant: every
// recovery path must leave every GM port re-enabled.
func requireAllPortsEnabled(t *testing.T, res *tmk.Result) {
	t.Helper()
	if res.DisabledPorts != 0 {
		t.Errorf("%d GM ports left disabled after the run", res.DisabledPorts)
	}
}

func TestFaultRecoveryTable(t *testing.T) {
	type faultCase struct {
		name     string
		procs    int
		kind     tmk.TransportKind
		faults   myrinet.FaultConfig // the run's Config.Faults
		tune     func(tb tmk.Testbed)
		workload func() (func(tp *tmk.Proc), func(t *testing.T))
		assert   func(t *testing.T, res *tmk.Result)
	}
	cases := []faultCase{
		{
			// Socket-level datagram loss (the original UDP fault test):
			// TreadMarks' user-level retransmission recovers.
			name:  "udp-socket-drop",
			procs: 8,
			kind:  tmk.TransportUDPGM,
			tune: func(tb tmk.Testbed) {
				tb.Sockets.DropProbability = 0.02
				tb.UDP.RetransmitInitial = 5 * sim.Millisecond
			},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(1024, 2) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.Transport.Retransmits == 0 {
					t.Error("no retransmits despite 2% injected receive loss")
				}
			},
		},
		{
			// Heavier datagram loss on fewer ranks: whichever side of the
			// wire a datagram vanishes on, recovery is the same user-level
			// retransmission.
			name:  "udp-socket-send-drop",
			procs: 4,
			kind:  tmk.TransportUDPGM,
			tune: func(tb tmk.Testbed) {
				tb.Sockets.DropProbability = 0.03
				tb.UDP.RetransmitInitial = 5 * sim.Millisecond
			},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(1024, 2) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.Transport.Retransmits == 0 {
					t.Error("no retransmits despite 3% injected loss")
				}
			},
		},
		{
			// Harsher socket loss under a lock-heavy pattern.
			name:  "udp-socket-drop-locks",
			procs: 4,
			kind:  tmk.TransportUDPGM,
			tune: func(tb tmk.Testbed) {
				tb.Sockets.DropProbability = 0.05
				tb.UDP.RetransmitInitial = 5 * sim.Millisecond
			},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return lockWorkload(8) },
			assert:   func(t *testing.T, res *tmk.Result) {},
		},
		{
			// Long retransmission timer on a clean network: slower but
			// correct, and no spurious duplicates are generated.
			name:  "udp-slow-retransmit-clean",
			procs: 4,
			kind:  tmk.TransportUDPGM,
			tune: func(tb tmk.Testbed) {
				tb.UDP.RetransmitInitial = 200 * sim.Millisecond
			},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(64, 1) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.Transport.Retransmits != 0 {
					t.Errorf("unexpected retransmits on a clean network: %d", res.Transport.Retransmits)
				}
			},
		},
		{
			// Fabric-level packet loss under UDP/GM: the kernel GM port is
			// disabled and resumed transparently; UDP's retry budget covers
			// the lost datagrams.
			name:   "udp-fabric-loss",
			procs:  4,
			kind:   tmk.TransportUDPGM,
			faults: myrinet.FaultConfig{Drop: 0.05},
			tune: func(tb tmk.Testbed) {
				tb.UDP.RetransmitInitial = 20 * sim.Millisecond
			},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(1024, 2) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.NetFaults.Dropped == 0 {
					t.Error("fault layer dropped nothing at 5% loss")
				}
				if res.Transport.Retransmits == 0 {
					t.Error("no UDP retransmits despite fabric loss")
				}
			},
		},
		{
			// Fabric-level packet loss under FAST/GM: the tentpole. GM send
			// timeouts disable ports; the transport resumes them and
			// retransmits idempotently.
			name:     "fastgm-fabric-loss",
			procs:    4,
			kind:     tmk.TransportFastGM,
			faults:   myrinet.FaultConfig{Drop: 0.05},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(1024, 2) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.NetFaults.Dropped == 0 {
					t.Error("fault layer dropped nothing at 5% loss")
				}
				if res.Transport.GMSendFailures == 0 || res.Transport.GMRetransmits == 0 {
					t.Errorf("expected GM send failures + retransmits, got failures=%d retransmits=%d",
						res.Transport.GMSendFailures, res.Transport.GMRetransmits)
				}
				if res.Transport.PortResumes == 0 {
					t.Error("no port resumes despite GM send failures")
				}
			},
		},
		{
			// Payload corruption under FAST/GM: the CRC check at the GM/NIC
			// boundary discards the frame, which then behaves exactly like a
			// loss.
			name:     "fastgm-fabric-corrupt",
			procs:    4,
			kind:     tmk.TransportFastGM,
			faults:   myrinet.FaultConfig{Corrupt: 0.05},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(1024, 2) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.NetFaults.Corrupted == 0 || res.NetFaults.CRCDrops == 0 {
					t.Errorf("expected corruption + CRC drops, got corrupted=%d crcDrops=%d",
						res.NetFaults.Corrupted, res.NetFaults.CRCDrops)
				}
				if res.Transport.GMRetransmits == 0 {
					t.Error("no GM retransmits despite CRC drops")
				}
			},
		},
		{
			// Timed blackout of the link into rank 0 (the barrier manager)
			// during the first barriers: every affected sender must resume
			// its port and retransmit.
			name:  "fastgm-blackout",
			procs: 4,
			kind:  tmk.TransportFastGM,
			faults: myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
				{Src: -1, Dst: 0, From: 0, To: 20 * sim.Millisecond},
			}},
			workload: func() (func(tp *tmk.Proc), func(t *testing.T)) { return stripeWorkload(256, 1) },
			assert: func(t *testing.T, res *tmk.Result) {
				if res.NetFaults.Blackout == 0 {
					t.Error("blackout window dropped nothing")
				}
				if res.Transport.PortResumes == 0 || res.Transport.GMRetransmits == 0 {
					t.Errorf("expected port resumes + retransmits, got resumes=%d retransmits=%d",
						res.Transport.PortResumes, res.Transport.GMRetransmits)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tmk.DefaultConfig(tc.procs, tc.kind)
			cfg.Faults = tc.faults
			app, check := tc.workload()
			res, err := tmk.NewTunedCluster(cfg, tc.tune).Run(app)
			if err != nil {
				t.Fatal(err)
			}
			check(t)
			tc.assert(t, res)
			requireAllPortsEnabled(t, res)
			t.Logf("retransmits=%d gmRetransmits=%d resumes=%d dups=%d faults=%+v",
				res.Transport.Retransmits, res.Transport.GMRetransmits,
				res.Transport.PortResumes, res.Transport.DupRequests, res.NetFaults)
		})
	}
}

// TestFastGMScarcePreposting reduces the preposted small-buffer depth to
// the bare minimum; messages may park briefly awaiting recycled buffers,
// but nothing may time out and results stay correct. (Kept separate from
// the fault table: it injects no faults, it shrinks a resource.)
func TestFastGMScarcePreposting(t *testing.T) {
	cluster := tmk.NewTunedCluster(tmk.DefaultConfig(8, tmk.TransportFastGM),
		func(tb tmk.Testbed) { tb.Fast.SmallPerPeer = 1 })
	const slots = 512
	_, err := cluster.Run(func(tp *tmk.Proc) {
		r := tp.AllocShared(slots * 8)
		tp.Barrier(1)
		n := tp.NProcs()
		for i := tp.Rank(); i < slots; i += n {
			tp.WriteF64(r, i, float64(i))
		}
		tp.Barrier(2)
		for i := 0; i < slots; i += 5 {
			if got := tp.ReadF64(r, i); got != float64(i) {
				t.Errorf("slot %d = %v", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for _, port := range []int{2, 3} {
			p := cluster.GM().Node(myrinet.NodeID(i)).Port(port)
			if p == nil {
				continue
			}
			if p.Stats().Timeouts > 0 {
				t.Errorf("node %d port %d: %d GM timeouts", i, port, p.Stats().Timeouts)
			}
			if !p.Enabled() {
				t.Errorf("node %d port %d disabled", i, port)
			}
		}
	}
}
