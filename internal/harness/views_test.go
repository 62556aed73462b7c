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
// The jacobi and sor rows were regenerated when write notices began to
// travel as page runs: barrier releases and arrivals carry a rank's band as
// one run, so they encode shorter and everything after them moves earlier.
// 3dfft's page lists at this size and tsp's are no shorter as runs, so
// their messages encode to the same bytes and none of their views moved.
// Then every ring hash was regenerated, and nothing else, when a call's
// span began to carry its reply's encoded bytes.
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"57859c03229eb8362e54f9a5035bcf0944659dd292ceacebb80df17ff7c96c00", "55ac37551c7e3c3f259d4710bac29f1cfde85b3dfa23d741f327b70403d07823", "e94b5e66be3733e25f8f670015139e5d5edb141b883f63459063e8cf8434e8dc"},
	"jacobi/fastgm": {"43132c0d64b6a820a21ca463004fe37b9516c41b9965a4672e89c45c768e8608", "84766b8c8d622b661776451c9d6a4930dbd96f84fd605323410708abb8423ebd", "a51b993c8ac729dfe3037b5c0219e3ddf3c277033602acdf07312cb885273e99"},
	"jacobi/rdmagm": {"790c8a3b0a69c67c3c8c2bf6ff08360cad5178993fbc532cef39058bf8f0d8e4", "cac9db44aa4d5a08fae25ed49b17aa126afa74358ff2872891ecfc363f057397", "a68bece3924c8c9ef52f9ba8894c63aaef0afd9e0130faf5c7250bada8892bd8"},
	"sor/udpgm":     {"bf168db1977b3cf2efd631081ab20f10b16c37eec77b4dee0b21636ee84b3e41", "d46af62d23686491f855eee607fbe6a58a39cb5a44ded4acc6c263724c291f71", "d16f40fa23b884c6c10ac29bca59689e2896e243c944f0345d687a55583e8f53"},
	"sor/fastgm":    {"e398628f2cb13bbee0e33075cf58829c9726a400cc6274d3ccb30d88192098cd", "db9f8e44374b9148642110e63b86bb1c1c4629cef0a4089c76095788b356c0e6", "d06b539d17f414b5267966489dd3e72b87de2b1e1eeed65b07b800c18690d4c4"},
	"sor/rdmagm":    {"91b564fa0ae9dc4f289495343fa68d25fea052f4e98f473a155f0e2d26de6aa8", "d1e00c1e52443528c5aafe62cf24dfb37df746253569c291ceef549bd78e4ef4", "ee0ecaeb46743ee1fc5b7ff8ca2357a17a1e2a52c069e01f294ed9f106531f2d"},
	"3dfft/udpgm":   {"37be088b2aba69d427c2c329f3901b655209faf02ce6da3bfd3dfbf506333a20", "34656207ee9b1a6716acc983f466bf51a89f6172d5ea19270914489a6d1f2491", "1c8e48a04ec1489709f75d85b52289d8a5f6f7107949dc560ebbe51014b6b3b7"},
	"3dfft/fastgm":  {"9d5fe8260d0c65c4be67f88a30aa4f633689c328d8445dd544d6f61711e0200e", "732dca6fe58369ffd17d282820be2752acd2cefa3f2d56bbcd00fd54e242e466", "cbcddc955ac37b236e0321caf3574a2cf1b3ad14e09931b5236f8b8931995902"},
	"3dfft/rdmagm":  {"9c20a113aa008e140c0d6351513c072958ca4516a58310481f64278b0d79efdc", "d31c7b9dee21111fbca4a669a1aeadfb77bc0d5f92f376c102822f7dffdf9306", "e8634c82859f7d9fb4f6b2028ccb6e7b50c5001373d4a1b3355d10bdcaf0bdc1"},
	"tsp/udpgm":     {"61a602882bb41a358943ec435329062023b67c111f01fbc10a40a480bdbdbee5", "83ee91129f389a303b94ed650055bed4cbc53077016d634871a9ddea179c0348", "ce7ba84b00a0678cccf911ec2bf93ad3d0dca9820677796cc1344069f475b1ac"},
	"tsp/fastgm":    {"1f414c261bb2e365deb199d58ec46f5dd6015a87c28a86cda1b083746617056c", "437b0c7c1255b72185e1cbeffedfaa4b41b8e5032a70c00cdb36a767e7d671ae", "40dbb1ae571db22890269aa4cb7e0a3ab6195d06fd5b5394fad7c16be24cb16c"},
	"tsp/rdmagm":    {"f888fef3ce91020a8b8bca7a2e7d40d2f13fc508938670d41ac9d3b90e164991", "acbce338c363560539acb319751b40ab8282ef468f2dd6a6071d1e06781c0c3b", "e63ffdf7c02bc0c2d62a5c8f666fc4fcbbcc40a618c1332b2dfa0754d4e85b42"},
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
