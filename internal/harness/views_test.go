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
// Every row was regenerated when the barrier manager began closing its
// interval on arrival, as every client does: its diff-create events now come
// before its children's arrivals and the releases leave earlier. tsp's
// profile, printed trace and timings did not move; its ring did, because
// every barrier crossing records one more masked section (sim irq-masked).
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"f22a085e5d5ddc9fedc77816cb0714cad1c247ee74bf9597a7a0d3ef14c800ff", "6913324fcc19bfb0a16c3a7e0a55f714a51295b7f4a706ff01a43b27c8c20acd", "a1a8bd44d3d6079e44ac58493f279c17bd17dc1bc38567411bfbc8940865a462"},
	"jacobi/fastgm": {"7b3c0c632692ca04ef2a9416ba45930db8862662219bb2521eb58fe0dc4f52c8", "40a9c72c663f003b03dad19332736a7f375858b19d549769b03a2c0792aa94b0", "41d201bab27bb0bcfde605fad46a6cf4e2bdfe7ae3d9ab08d4fc566e91f67593"},
	"jacobi/rdmagm": {"c0f247c0453b9b660c853502e6adf9102f6433003fb660fbd6f3c7259c468a48", "226430c7efc46a099923c9dde9d1144c56cd50484b41aa7e79fb5e651d3ecd36", "f509b3c3e09ac45506d4482e2684d77c6f7678fab23eefae85e6c5495cd17c67"},
	"sor/udpgm":     {"7e491e821954158bb01f8a187f114b63ad0d12d798d14fa20bcb92607628f5d2", "ee0ef988e46b652da6c1af9cb7a42a92ce4ac6b5faa6e4686df191af3b6d76c2", "2d9c09da85c156da6d2983e834eb67ae03a68661ea8226aaf6e69fcf5a27b40c"},
	"sor/fastgm":    {"7ec9673aa98061842cce7120f56c860c07c04e8671f18b14788af59a55e5337f", "3af5c95dd629e825b328b601112991a61ef7cabf8cdb73e75ff6223c7090d9b0", "dfa4d90000f12b40634cfec79ecbafe674aa12a1813e77d2c4d17244173e9952"},
	"sor/rdmagm":    {"a74ebfed1fc4e28fd551105bbe8dd38c9f5c399432e6cf58b357519e6bb07978", "3e836c19368a6bba8ebf3d27f367352e97d8d7e185908fb2274637cf84dd6c59", "8128f1f6da9de2f6fe16608887e38179179b9ec2e6c08598d30115b90cb8f301"},
	"3dfft/udpgm":   {"be5a74bfdc848fe35b38c5c87952e7b06a18ae08a56e642c7eeb2e3c7932fb21", "a4822f100f5a1706fbaa3f2711fbbfba5c2494841503425a51efe8a317db51a7", "df24b17121ee5b30fff85c050576c331246d5ad6a2b1b6e65c7f5f566bd0a933"},
	"3dfft/fastgm":  {"3bc374ab3c0ed209b1cd69d02196269166454d96c1231f19b8892ae8ea152961", "ce95111b0cfe1c303efb62bc3c08283ae1320cbb6791a30b2861c9a102500bcc", "4a121ceeb6a40e99419e07b74ba98b2c5688be9dc334dfac4c1e501505e5f6b4"},
	"3dfft/rdmagm":  {"9d01bbdeff5d95a87030061d7cbe38196d9d2768855f41d6dd18259f39e8b925", "25cfd341acff1493010eb2afd8e17d5b8c122b6753a5188f3ca3e961cab5e127", "eb6ab6b1b5f2eaaa6f18b30fc7d96230ec381c6158ff16c1f756abd9f16952ed"},
	"tsp/udpgm":     {"69b27fa35d1e6c92287ee47b23db0eb512e21283d55b42631d446b10cf4d29ab", "23f7588414372ebc60ce1523d485ee06821a6d3d26b75639e5db9398d5d9e654", "ae0e231c1db4ec5984ba91c923b50ba2d73c7dbdbd338c6573760889a0024d4f"},
	"tsp/fastgm":    {"ad4d200e40cdfb1988b1b14ffa0defe82999b409bf45cdab47f5abc6feac8248", "2c753de762b2babcd627711185475b3995e9178bf2be7be7b0ce35837e5256ea", "1d0c6fdaf536052e02f09475a4952df0fffa79defa9ee6b2d5f18ad49ab5b068"},
	"tsp/rdmagm":    {"19e567a16049c6e87db9b298d43f9b571467e959bb30fd5f67996ccf5b84b94d", "2ebb9bbae6f27fd77142a73fdeb999a98a35c82501bf9e6f6a0028013ccc26ab", "b9ef7b88696b741d97b9fe107f0f57663a9a07b480aa7b2ee286c14f43bd0e13"},
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
