package harness

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/tmk"
)

// TestRequestDisciplineStaysInsidePreposting pins the invariant that lets
// the substrates run without end-to-end credit flow control (DESIGN.md
// §14): a TreadMarks request is a call awaiting its reply, so no sender
// outruns what its receiver preposts. Every application at its smallest
// ladder size on 16 nodes — the widest fan-in the paper runs — parks no GM
// frame and drops no datagram on udpgm, fastgm and homeless rdmagm.
// Home-based rdmagm's verbs do park at a busy target NIC, so there the
// bound is GM's own: no parked frame expires, no port is left disabled,
// and the whole run finishes inside one resend timeout. A one-way burst
// added to tmk fails here first.
func TestRequestDisciplineStaysInsidePreposting(t *testing.T) {
	const nodes = 16
	resend := gm.DefaultParams().ResendTimeout
	for _, name := range AppNames {
		app := SizeLadder(name)[0]
		for _, kind := range AllTransports {
			for _, homeBased := range []bool{false, true} {
				if homeBased && kind != tmk.TransportRDMAGM {
					continue
				}
				label := name + "/" + string(kind)
				if kind == tmk.TransportRDMAGM && !homeBased {
					label += "/homeless"
				}
				res, err := RunApp(app, nodes, kind, func(cfg *tmk.Config) { cfg.HomeBased = homeBased })
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				t.Logf("%s: %v, %d frames parked", label, res.ExecTime, res.ParkedFrames)
				if res.PortTimeouts != 0 || res.DisabledPorts != 0 {
					t.Errorf("%s: %d parked frames expired, %d ports left disabled; want none",
						label, res.PortTimeouts, res.DisabledPorts)
				}
				if homeBased {
					if res.ExecTime >= resend {
						t.Errorf("%s: ran %v, not inside GM's %v resend timeout", label, res.ExecTime, resend)
					}
					continue
				}
				if res.ParkedFrames != 0 || res.SocketDrops != 0 {
					t.Errorf("%s: %d frames parked, %d datagrams dropped; want none",
						label, res.ParkedFrames, res.SocketDrops)
				}
			}
		}
	}
}
