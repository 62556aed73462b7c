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
// The */fastgm and */rdmagm rows were regenerated again when the registered
// send pools became arenas carved by length: one region is registered at
// boot where twelve were and sends stop parking behind their size class, so
// the same events carry earlier timestamps; udpgm did not move.
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"0850cb6c476820021a85a0b6ef23b378cec8d23c598eb0a83bf6ab1234242ea5", "0fadb63be0508eca1077bbd16bc593a66d520ca1909f9032ff0409a8e590f90b", "9a9adae26379d7716ef804d3105c912e1c0084a5c89a138051cbc1f5812e5c4d"},
	"jacobi/fastgm": {"e5b75da5c5a3aead884aae3c3ebd8e3993717d8a5eaf9e2df634a1c4e1c297f1", "9f21177d76ed347dd000c959c83ad63b653ca556c6f061d67971b6f3c92a4081", "12cc11c11c09c474ba9caf8decb909f3decdaee3f895293275f048c392b638e3"},
	"jacobi/rdmagm": {"019d73cd1598f6260c0a506b7d8307fc354cd8e423491633322a163cfbe8e6b4", "8c1d656e662f62238bc9e1c6e5da740dbdadb710f92207abbb2549637ce00d00", "b30c379d794f1ce7d7689cdb2ee2b50ab2f723a66b5bb2641be0e2a2bac88207"},
	"sor/udpgm":     {"d6c202b705e5d09ef11a3a1a51ea998194ecc82f90582e3335c161cd2dc3a266", "55d48664dacab3cd671d6ce7f8e2992295533d52157c18410a4df89d6c8c0605", "91fdf03ad1f81f56976a12c70439a7282b8bdd985fc086e63860e92e6da978f0"},
	"sor/fastgm":    {"402ecea2dd641d0c370909c220f7c53ef19df2e74cf84cb93b66b2b8eaf38513", "4a6814c129ff4f30408a1e440ea83b6126b07363b231ca618e1a490febd4c14a", "596ec4c00157b509d4a2375876f07897d252b3dc8aa6afaeeabf6f45a670b13a"},
	"sor/rdmagm":    {"bcfdc1e61bdb33bcac64c0aa8d98bdb016c9f639ddbf882a9cac0c592aa98525", "65b92d119cb441c349298b68c1173509c8f01d393bc6a91cad750c40cde0ff2a", "4d21d517773b11de3a8ce8af6937ddbdabb77edd7cb80c76d318c92ea04c28f0"},
	"3dfft/udpgm":   {"c02a93778f60dd1935f0a37ada88196e0d82bebe8d810dd19667b8d54c525443", "d1966233864f3d6b05880c231fdd7ce1960698cec416f8344befd8ea01b3d717", "bf762014d4bd8621292447ed0420e36ab0308697fa7900f2bc661e36b07fca53"},
	"3dfft/fastgm":  {"f1420139f337e5c8ed9b3bbdc3dc5b648c040102fdaa3e32ce21d0dc10a17ae6", "86d514cf9e0f12b57bc0e5f4be122466e32b9d3b0eeac6cf66d4e0e2eb351c98", "af70f944fb153e2630ee4e45395dd2d429b8116f24d7039f983f1cb8babc2b14"},
	"3dfft/rdmagm":  {"6a17558717bd0a31fa71f15669da2ab7861c15c1a510a665199341f8be91548c", "9febbd54bd5a9d6b8310bc17e914835db05afed6b5ff3678292f06fba01719fb", "e7732cf56d063c34d1195927bf5fe59cf22ab3e20ee5497302cbf5c8c481f504"},
	"tsp/udpgm":     {"ff0a5a19649d5350f50f991dad8f12aea68502bd0c029f353cdcebbf6c4ca213", "23f7588414372ebc60ce1523d485ee06821a6d3d26b75639e5db9398d5d9e654", "ae0e231c1db4ec5984ba91c923b50ba2d73c7dbdbd338c6573760889a0024d4f"},
	"tsp/fastgm":    {"5294a11c449d5351fe72ae82c09ed8bab8548a46afffb60e414f63b7777020e8", "2c753de762b2babcd627711185475b3995e9178bf2be7be7b0ce35837e5256ea", "1d0c6fdaf536052e02f09475a4952df0fffa79defa9ee6b2d5f18ad49ab5b068"},
	"tsp/rdmagm":    {"ce6e16c00009ecf4184aef304a22122c25ac3ce9bfa8f088225ec582c3a5691a", "2ebb9bbae6f27fd77142a73fdeb999a98a35c82501bf9e6f6a0028013ccc26ab", "b9ef7b88696b741d97b9fe107f0f57663a9a07b480aa7b2ee286c14f43bd0e13"},
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
