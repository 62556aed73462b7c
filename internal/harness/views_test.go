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
	"jacobi/udpgm":  {"39a9d4a6ecd7122751b91d4203ad4eea56fe92a7443867decb15da09c4eac837", "f7273257ba084aba9e7e7a4ff771dfa9e1ab66562afa2b85363a30d9ad462ff8", "dbbc7a155c2e8e1f711f5aeeb587e895170af502d94e7bf1858bd06e313328fc"},
	"jacobi/fastgm": {"31ccac321700de48f9b2b17a0250124b3f1797ff3790d5be7853377af204f202", "7ab0f9e9297962cda16c406641b7b8e42990e7491ba38819259544b8f31a1284", "c23a6810c14a78631bd3388b9fab4d6b283ada89ebb38bbb7a89b35585e787d1"},
	"jacobi/rdmagm": {"019d73cd1598f6260c0a506b7d8307fc354cd8e423491633322a163cfbe8e6b4", "8c1d656e662f62238bc9e1c6e5da740dbdadb710f92207abbb2549637ce00d00", "b30c379d794f1ce7d7689cdb2ee2b50ab2f723a66b5bb2641be0e2a2bac88207"},
	"sor/udpgm":     {"37eecc49fb199116e43b1e5511960792a077ce06adb71d6a2ef5beeeccd15beb", "b2fef7f535c3da86305d2a4a6019dc965997b3785a3d475d413e875892cf10fb", "7b943f83c9575506158f14155cf2fc363febe6006a4e160c792b1efb89a310b8"},
	"sor/fastgm":    {"f58a5c11eb510b2c876b1a28b31c3a2c968fe551b6543d5b2743eb0863234fab", "aca761a26663444e319ef133dab6a3a0ace6b5aa5e373b44b74aba8214f28aa4", "8a4a580c03e7d5c54ff46e11345c5dcd658d1d1bccd185e8901873e1f0b72e00"},
	"sor/rdmagm":    {"bcfdc1e61bdb33bcac64c0aa8d98bdb016c9f639ddbf882a9cac0c592aa98525", "65b92d119cb441c349298b68c1173509c8f01d393bc6a91cad750c40cde0ff2a", "4d21d517773b11de3a8ce8af6937ddbdabb77edd7cb80c76d318c92ea04c28f0"},
	"3dfft/udpgm":   {"c0cf103c5f2973cd0d9956d5c38b19d9e89bb723d08dddf848d989aeca305253", "0113282c5cedffe3858441acebd87021a125bc9574e9a641158ef9004465b923", "fd9cfd3c52e11c332ec3acd28a8ac0855dd6f075fe57c690459426b94f41b145"},
	"3dfft/fastgm":  {"d3c9d43d0a38e4bfb9a697cd64b455623bcf03095e75a0c7c44abb9187d6de98", "678f7fd0c3011c351a62a7411f5e0e9420c5a959a315873576a10696c7233751", "5ee7b05e34c58109f2e0023747f722873054a6cef0e6a763931719e9359eca00"},
	"3dfft/rdmagm":  {"6a17558717bd0a31fa71f15669da2ab7861c15c1a510a665199341f8be91548c", "9febbd54bd5a9d6b8310bc17e914835db05afed6b5ff3678292f06fba01719fb", "e7732cf56d063c34d1195927bf5fe59cf22ab3e20ee5497302cbf5c8c481f504"},
	"tsp/udpgm":     {"5bad3fa30be40b41d2fc5f35e9d8a9f4c363c217d67210ba7f154373c72be94d", "dac3d909cd2572f1d8484ec861c207838794012045213065ad6afcfa3a74ff78", "6a23443a797e5a86dcabd495ff57a8d1c8d6db2cd1b037cd9b8fa597cccab447"},
	"tsp/fastgm":    {"859aa7f621ddc0e0c717bdbae64428d50ae2b22e13184d118f03ecdda5e0cbd9", "2a8b0391cf9ba91b289f5f8f42fd43ee3cc4ab5e7689c63ef69f0006d1213d24", "e021310eebfb4955ebbb23c40dd26702e6b3e9cdebf93ede9dcd520101c3a3ec"},
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
