package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// viewHashes pins what each observer view receives from one run: the
// trace ring's event stream, the entity profile's JSON and the printed
// protocol trace.
type viewHashes struct{ ring, prof, text string }

// goldenViews was generated at the parent of the commit that folded
// tmk's observer channels into one event stream (the hooks were still
// called by hand at every protocol site), so it holds every view to
// "receives exactly what it received before" — the observer analogue of
// `make bench-identical`. A PR that means to change what a view sees
// (say, to fix one of the disagreements DESIGN.md §8 marks) regenerates
// the affected rows from the failure message and says so. The */rdmagm
// rows were regenerated when homes began to follow the writer (home-move
// events, fewer twins, diffs and flushes); udpgm and fastgm did not move.
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"39a9d4a6ecd7122751b91d4203ad4eea56fe92a7443867decb15da09c4eac837", "f7273257ba084aba9e7e7a4ff771dfa9e1ab66562afa2b85363a30d9ad462ff8", "dbbc7a155c2e8e1f711f5aeeb587e895170af502d94e7bf1858bd06e313328fc"},
	"jacobi/fastgm": {"432841ee9ef864c49299f60b05ad49b38eb4122c0bcec540bf7fd268ab1f21cb", "e2c12dd292ec446cbf8e46fe03bf349d1de64e6e1e8ce4ec59ec0b3a2a876baf", "c61322bfb9bfcbe372dfa9b0f37087b41c44a9ff9aff7256b04ad77193b959e7"},
	"jacobi/rdmagm": {"4545d1e60a322ca076b6635fe3a46ccb7ac9cfe452d4d964a6ecc4e92209bd37", "feaa06f6e1c2099aad50ac3c6bdc80fd94028830d1402c8c3a0fd0378c1e1c9b", "08de4cffe24ed779f528003da605bf52c58dcb656df4bc35da00af6b402fc61b"},
	"sor/udpgm":     {"37eecc49fb199116e43b1e5511960792a077ce06adb71d6a2ef5beeeccd15beb", "b2fef7f535c3da86305d2a4a6019dc965997b3785a3d475d413e875892cf10fb", "7b943f83c9575506158f14155cf2fc363febe6006a4e160c792b1efb89a310b8"},
	"sor/fastgm":    {"55339e73d1814125002631febf44e85a81fe695decfd8f3a976868cd00c7c2be", "791e980f04a14820cd781434a657e09e6e061526359f3da1b312d89c9ab08c7b", "7c58e3bc4e47f5215600072ff697e75ed31c9eafe134838fa82c4924d28bca97"},
	"sor/rdmagm":    {"020dad638cb26cbc01ee28a09efc1d00c9f6201e275efa7a89890f2a14df687b", "ff43732c9cd5b7b3d0fd8f8d546a4fb653e0ff0d1b9a5d083df554f38aa16bc5", "af040e9f5c5d4b80e9bab19b0f099f399edc8267263a8e4d9b7a3909d8cab2df"},
	"3dfft/udpgm":   {"c0cf103c5f2973cd0d9956d5c38b19d9e89bb723d08dddf848d989aeca305253", "0113282c5cedffe3858441acebd87021a125bc9574e9a641158ef9004465b923", "fd9cfd3c52e11c332ec3acd28a8ac0855dd6f075fe57c690459426b94f41b145"},
	"3dfft/fastgm":  {"b32648b8171b2765df511000642e8b18e8d296388b349113903b2997a9517def", "9285b634d8e91d21d74ec3e64f4a54c0903a2a7b68b372bd2508866552aae4da", "d918192157b8a1af11c5b005fa0af11e94469a58a8259b55238dfacebc9ca1a0"},
	"3dfft/rdmagm":  {"0040f2b7353554bfc51e3d9122637f2589a6fef4f483f54830ff1af7cbb15f5f", "fee97b7df57897a80aad818b8d625e8d963c40a14d26f1d8d69a8f54763dbbf3", "02abda0c0f25ee0e47b7b0aea432dcaae0f690a9c91af1560e1bb9cb11fd5df4"},
	"tsp/udpgm":     {"5bad3fa30be40b41d2fc5f35e9d8a9f4c363c217d67210ba7f154373c72be94d", "dac3d909cd2572f1d8484ec861c207838794012045213065ad6afcfa3a74ff78", "6a23443a797e5a86dcabd495ff57a8d1c8d6db2cd1b037cd9b8fa597cccab447"},
	"tsp/fastgm":    {"064e784be7ddbbfe774b09037e18bcd5308ed71c61fef33d27f5600464ae6a1e", "0effb2785f2b9e187b2987686b37c7ca8bdea00d7372e5e370980fce4edbe37f", "3f94f110dfce38625a1a941ab6ea0aa20ea404d5b1a9e36417bed63ee090c212"},
	"tsp/rdmagm":    {"72290887de8ca5e03237ee267f8d4aef2de64d6dd598c335606365dcb5613152", "85e6d7100ae405fc61927eb88d14873e242fe5b0c0c9b76ed02b5ffb2070b1ee", "01702f4d647a942ba34ae14b1932133a931ada501e3f7575a2a1df85bcf736d3"},
}

// TestObserverViewsGolden runs every application at its smallest ladder
// size on 4 nodes over each substrate with all three views attached and
// compares their content against goldenViews.
func TestObserverViewsGolden(t *testing.T) {
	for _, name := range AppNames {
		app := SizeLadder(name)[0]
		for _, kind := range AllTransports {
			key := fmt.Sprintf("%s/%s", name, kind)
			t.Run(key, func(t *testing.T) {
				cfg := tmk.DefaultConfig(4, kind)
				tracer, pf := trace.New(1<<20), prof.New()
				cfg.Trace, cfg.Prof = tracer, pf
				cluster := tmk.NewCluster(cfg)
				text := sha256.New()
				cluster.TraceTo(text)
				if _, err := cluster.Run(app.Run); err != nil {
					t.Fatal(err)
				}
				if n := tracer.Overwrote(); n > 0 {
					t.Fatalf("ring wrapped (%d events lost): raise the capacity", n)
				}
				ring := sha256.New()
				for _, e := range tracer.Events() {
					fmt.Fprintln(ring, e.Layer, e.Kind, e.T, e.Dur, e.Proc, e.Peer, e.Bytes)
				}
				profile := sha256.New()
				if err := pf.Snapshot().WriteJSON(profile); err != nil {
					t.Fatal(err)
				}
				got := viewHashes{
					ring: fmt.Sprintf("%x", ring.Sum(nil)),
					prof: fmt.Sprintf("%x", profile.Sum(nil)),
					text: fmt.Sprintf("%x", text.Sum(nil)),
				}
				if want := goldenViews[key]; got != want {
					t.Errorf("views moved (ring %v, prof %v, text %v); got row:\n\t%q: {%q, %q, %q},",
						got.ring == want.ring, got.prof == want.prof, got.text == want.text,
						key, got.ring, got.prof, got.text)
				}
			})
		}
	}
}
