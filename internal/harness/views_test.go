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
// Every row was regenerated again when Distribute became one scatter per
// round (every rank maps a new region at once, so everything after it moves
// earlier), a closing interval began encoding its pages in page order, and
// the home flush began streaming its Puts: the ring and the profiler now
// both see one home-flush event per page, where the ring saw one per
// interval.
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"9549d92236d5fe2ccf4e6c54044db9ff101349de7105bdcc587b708295b9fe05", "9f60c1c8036edd4167e528103d6b03791144bdbdd193d3c25fefd9701d724d97", "94235b9780fba674f1a792dce7fd777f64d62feb89a4af62c9e4b5dfb409add5"},
	"jacobi/fastgm": {"b71e5c7a42b97b6dd5c26a6d6d7d422f7b72af20a111efe8e03c4c8d32bdaeeb", "d3301f79df23bdeac08d11729c67e4bde758eb9b1fad1a484a695cab397f9bd1", "f55cdbb1b1babcf57cf77b7ec70109a8f5ca400a1c784207e97549ad8a9208dc"},
	"jacobi/rdmagm": {"a8acedf8169b15f3c524b9d3fc5ebf850be64864c7b376aa35dff6e592f648cb", "ecd8cd085745867b145066a456b93c16b7b5ef0d477179fef6a054158fdd9a38", "4dcaa662084f2a0ac82712afc417c0e6e4343f5bad0169824a7f438d85339324"},
	"sor/udpgm":     {"807203ffd3ac87542c625e25ccf84946a5dc77ecc3d46090fd2df34e12a12809", "21f5c88123e0656f1dd3cdc295159abffc6bdf5cf9321c6a4fd97f4bc4d17220", "cb097cde13cc7ded494266524f0e1f8867072aa28c8405903977cc685f8d3c94"},
	"sor/fastgm":    {"2e52e3f8b0b2c40d435b8f2f13049f35634aa054b99317665438ada595767e2d", "e444c1c4be2d5dd05a0600d833cc60f674a87d6a0199dfcb124715327eb272c8", "313492aabc2558d055c32bd35247e0e403cceba4c58cd5a6076be01ed42ae278"},
	"sor/rdmagm":    {"015a66460e11d1b9f9030f9da14597bd5513f5aaf1f9bf5915902d1c1f2dd8f5", "09186d499c7a6dc762f4bcec719e8ff3def23b5a072ff3cc05aacc706444f5a9", "f51dd9ccc4a3c6870b0912bddab00e17ca69d45fa4453355499328c79ae8b4f0"},
	"3dfft/udpgm":   {"fc626f4a12c8fbeedefbb7b74b83e672c1e2a71545c207065238bf13849dca0b", "34656207ee9b1a6716acc983f466bf51a89f6172d5ea19270914489a6d1f2491", "1c8e48a04ec1489709f75d85b52289d8a5f6f7107949dc560ebbe51014b6b3b7"},
	"3dfft/fastgm":  {"e779925ae3b31629d9cdac09a0735739c3faeb92819371e88e30ff57bed2e697", "732dca6fe58369ffd17d282820be2752acd2cefa3f2d56bbcd00fd54e242e466", "cbcddc955ac37b236e0321caf3574a2cf1b3ad14e09931b5236f8b8931995902"},
	"3dfft/rdmagm":  {"6008f182d254d0cda8dba8c8d045914dc804aba19e603bb01916521d4eaf751b", "d31c7b9dee21111fbca4a669a1aeadfb77bc0d5f92f376c102822f7dffdf9306", "e8634c82859f7d9fb4f6b2028ccb6e7b50c5001373d4a1b3355d10bdcaf0bdc1"},
	"tsp/udpgm":     {"ab4a0d8d1952c469da492caac290adbcefcd73a718075dae27547233ca4ea8b5", "83ee91129f389a303b94ed650055bed4cbc53077016d634871a9ddea179c0348", "ce7ba84b00a0678cccf911ec2bf93ad3d0dca9820677796cc1344069f475b1ac"},
	"tsp/fastgm":    {"0286446cf985746ef335b5109f439145e0f5df14bc387b799b5d4f96a4eed290", "437b0c7c1255b72185e1cbeffedfaa4b41b8e5032a70c00cdb36a767e7d671ae", "40dbb1ae571db22890269aa4cb7e0a3ab6195d06fd5b5394fad7c16be24cb16c"},
	"tsp/rdmagm":    {"601892ba51913106f162166c0c925b365f09e502993b3181216d60f2f468bd5d", "acbce338c363560539acb319751b40ab8282ef468f2dd6a6071d1e06781c0c3b", "e63ffdf7c02bc0c2d62a5c8f666fc4fcbbcc40a618c1332b2dfa0754d4e85b42"},
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
