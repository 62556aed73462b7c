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
// Every ring and text hash was regenerated, and no profile hash, when the
// profiler and the protocol trace became subscribers of the ring's stream
// and the view disagreements DESIGN.md §8 listed closed. Ring: every row
// hashes the widened record (rank, id, region, a, b, c), and gains the
// kinds that were profiler- or text-only — notice and barrier-arrive in
// every row, diff-apply in the homeless ones, lock-local, lock-release and
// lock-grant in sor and tsp; without those kinds and fields each row's
// stream is the one it was. Text: every row prints a read fault at its
// completion, and the write faults, notices and barrier steps it did not
// print; the homeless rows a diff fetch per page at completion where a
// request per range at issue was; the rdmagm rows the home fetches and
// flushes; sor and tsp the remote acquires and releases, and grants
// without their vector clock.
// The jacobi, sor and 3dfft */rdmagm rows were regenerated when a page's
// home became its block of its region and homes stopped migrating: no
// home-move event exists any more, a rank writes most of its band twin-free
// from the first epoch, so there are fewer diff-create, home-flush and
// home-fetch events (jacobi 550 → 212 flushes and 189 → 40 fetches, sor 218
// → 118 and 153 → 100, 3dfft 45 → 30 and 59 → 46), and everything after
// them moves earlier. tsp's one-page region is homed at rank 0 under both
// placements, and no migration ever moved it: its rows did not move.
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"2646948a534be81e2eb2b595c6eb92bc028a71a5c942f9bac383fd85deba16f9", "55ac37551c7e3c3f259d4710bac29f1cfde85b3dfa23d741f327b70403d07823", "50f92d22195e218dc27996a188a6afdf85ddb0e4e458d815a8601e7cab2dbdec"},
	"jacobi/fastgm": {"9bf550b5a2129774552bfc0bb95cfabad36158c0d19fce86ac2141fc58b06747", "84766b8c8d622b661776451c9d6a4930dbd96f84fd605323410708abb8423ebd", "7e78e06a5efd213287e036e913147132dd79c9d9af63d5604417fc387f638404"},
	"jacobi/rdmagm": {"5a6a906f8900ff6c4eccdb8e79bb5006dc6969ee1c4e3561a251fe9955d70401", "bdebd3b17df60a0e7e05b996bcd01a7a8caeb665da6ac2a31e41ea2d7d12413d", "87cc02547f7cc0feb3bffea2ee73bde94176596e3d17d183ac6b21738b03df98"},
	"sor/udpgm":     {"5723a1073a0d97b7f9bf9e6f6b3cdccf461925d3caeee9f1265d2a24a54bfa52", "d46af62d23686491f855eee607fbe6a58a39cb5a44ded4acc6c263724c291f71", "19639bb5a2febb59a4a957dcb6b6004d615cde7d402ad8dda9a6162d752deab7"},
	"sor/fastgm":    {"aa019b090e789cd9b171f3d82760457f2943ae3f105599264226a944a72115a0", "db9f8e44374b9148642110e63b86bb1c1c4629cef0a4089c76095788b356c0e6", "005af59a4c93c2654c74f9112f406344468e63e65142f6584854461bb761a1e1"},
	"sor/rdmagm":    {"1e459d82470e8eae6110f6a275b54ac57983f41a6f1efdde3ef9c7bf52212973", "ae2649951c486a56acbd6b9693bc55fc725ac5be07e4312e68d95b0c773030a4", "a72b5bb6a0b140f811cfbdb264ebcaf8c507b8971b50d1bd2ea33bc3ae9b31ed"},
	"3dfft/udpgm":   {"0bfc96523f78d47dd2c438bedf0539b9e05a2d84b05a08f6391689d07d31815e", "34656207ee9b1a6716acc983f466bf51a89f6172d5ea19270914489a6d1f2491", "cefb1db39e7a8c31c78ca7c5f5a60afd9c13b788abb99b1434ae4a738fa388b0"},
	"3dfft/fastgm":  {"9a58361905769e41319f2c44518c7e1151b7492733288cb402fbbe0ce67e5fd8", "732dca6fe58369ffd17d282820be2752acd2cefa3f2d56bbcd00fd54e242e466", "e0340ee0a8c443ae9d3e8f2cd65a21f7f8cfd206ccb5d8f1922119bf55b2ee79"},
	"3dfft/rdmagm":  {"5f6277bba157867535641169e993f80ef3913c09e015c0c8e39e68e98e7b9c05", "87565e9fd686e8d0ce58dd33a223349173a1585bfa5b8d51dd8c5c2d48c88b37", "978a65e1181e7bafaef190a4ae92001c7a5dade40d677bed1db0bd3daa8d0262"},
	"tsp/udpgm":     {"856b22c5b1fb1f49dfeffc3557103364e6ccb7d0db97d46ff785169df13098e0", "83ee91129f389a303b94ed650055bed4cbc53077016d634871a9ddea179c0348", "fe7d7e5489df2643a9393b82fec5afcaf7a049046706f5d9fac6f7e33dd7ac2e"},
	"tsp/fastgm":    {"e736b1101952d0a66fe9840c997f4cdb934cc29888935323a576c8cf1cafd3ed", "437b0c7c1255b72185e1cbeffedfaa4b41b8e5032a70c00cdb36a767e7d671ae", "1515925bb10c8d84f1e44d8789825c42d1f748bd9cbfa9af8ec84fa62ba5f43b"},
	"tsp/rdmagm":    {"4e8db3dc1f15925a64740cdf8bdf2ca1521a0863721db28fcac8c06fa47e1a0d", "acbce338c363560539acb319751b40ab8282ef468f2dd6a6071d1e06781c0c3b", "3db25a17a50b4a9a70de4dc48608170f7e9b8f30ad1088ab06fbf5257c7b514e"},
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
				tracer, pf, text := trace.New(1<<20), prof.New(), sha256.New()
				tracer.Subscribe(pf.Observe)
				tracer.Subscribe(tmk.TextTrace(text))
				cfg.Trace = tracer
				if _, err := tmk.Run(cfg, app.Run); err != nil {
					t.Fatal(err)
				}
				if n := tracer.Overwrote(); n > 0 {
					t.Fatalf("ring wrapped (%d events lost): raise the capacity", n)
				}
				ring := sha256.New()
				for _, e := range tracer.Events() {
					fmt.Fprintln(ring, e.Layer, e.Kind, e.T, e.Dur, e.Proc, e.Peer, e.Bytes, e.Rank, e.ID, e.Region, e.A, e.B, e.C)
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
