package stest_test

import (
	"bytes"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/stest"
	"repro/internal/substrate/udpgm"
)

// TestConformanceAllSubstrates drives the complete Transport contract
// table-driven across every substrate in the repository. The per-package
// suites (fastgm, udpgm, rdmagm) exercise their own configuration
// variants; this table is the single place that proves the three
// families answer the same contract side by side — adding a fourth
// substrate means adding one row.
func TestConformanceAllSubstrates(t *testing.T) {
	builders := []struct {
		name  string
		build stest.Builder
	}{
		{"udpgm", func(n int, seed int64) *stest.Cluster {
			return stest.NewUDPConfig(n, seed, substrate.Policy{}, udpgm.DefaultConfig())
		}},
		{"fastgm", func(n int, seed int64) *stest.Cluster {
			return stest.NewFast(n, seed, substrate.Policy{}, fastgm.DefaultConfig())
		}},
		{"rdmagm", func(n int, seed int64) *stest.Cluster {
			return stest.NewRDMA(n, seed, substrate.Policy{}, fastgm.DefaultConfig())
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) { stest.RunConformance(t, b.build) })
	}
}

// TestCallAllocatesNothing: once warm, a request/reply costs the host no
// allocation on any binding — the request is encoded into its call's
// record and decoded into the server's request decoder, the reply encoded
// into its duplicate-filter slot and decoded into a recycled decoder, and
// the slot itself reused — and neither does a one-sided Put or Get, whose
// descriptor and completion take the same route. The warm-up laps every
// duplicate filter once, so every slot holds storage.
func TestCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, b := range []struct {
		name  string
		build func() *stest.Cluster
	}{
		{"udpgm", func() *stest.Cluster { return stest.NewUDP(2, 1) }},
		{"fastgm", func() *stest.Cluster { return stest.NewFast(2, 1, substrate.Policy{}, fastgm.DefaultConfig()) }},
		{"rdmagm", func() *stest.Cluster { return stest.NewRDMA(2, 1, substrate.Policy{}, fastgm.DefaultConfig()) }},
	} {
		t.Run(b.name, func(t *testing.T) {
			c := b.build()
			payload := bytes.Repeat([]byte{0x5A}, 200)
			req, reps := msg.Message{Kind: msg.KPing, PageData: payload}, make([]msg.Message, 2)
			window := make([]byte, 4096)
			allocs := map[string]float64{}
			c.Spawn(
				func(rank int) substrate.Handler {
					return func(p *sim.Proc, m *msg.Message) {
						reps[rank] = msg.Message{Kind: msg.KPong, PageData: m.PageData}
						c.Transports[rank].Reply(p, m, &reps[rank])
					}
				},
				func(rank int, p *sim.Proc, tr substrate.Transport) {
					os, oneSided := tr.(substrate.OneSided)
					if rank == 1 {
						if oneSided {
							os.RegisterWindow(p, 1, window)
						}
						return
					}
					p.Advance(sim.Millisecond) // rank 1's window is registered
					call := func() {
						if rep := tr.Call(p, 1, &req); rep == nil || !bytes.Equal(rep.PageData, payload) {
							t.Fatalf("bad reply %+v", rep)
						}
					}
					ops := map[string]func(){"call": call}
					if oneSided {
						segs, verbs := []substrate.PutSeg{{Off: 64, Data: payload}}, make([]substrate.PendingVerb, 1)
						ops["put"] = func() {
							verbs[0] = os.PostPut(p, 1, 1, segs...)
							if err := os.WaitVerbs(p, verbs); err != nil {
								t.Fatal(err)
							}
						}
						ops["get"] = func() {
							verbs[0] = os.PostGet(p, 1, 1, 64, len(payload))
							if err := os.WaitVerbs(p, verbs); err != nil || !bytes.Equal(verbs[0].Data(), payload) {
								t.Fatalf("get: %v %x", err, verbs[0].Data())
							}
						}
					}
					for _, name := range []string{"call", "put", "get"} {
						op := ops[name]
						if op == nil {
							continue
						}
						for i := 0; i < substrate.DupCacheSize+16; i++ {
							op()
						}
						allocs[name] = testing.AllocsPerRun(100, op)
					}
				},
			)
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if len(allocs) == 0 {
				t.Fatal("nothing measured")
			}
			for name, n := range allocs {
				if n != 0 {
					t.Errorf("allocations per %s = %v, want 0", name, n)
				}
			}
		})
	}
}
