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
// trace ring's event stream, the entity profile's JSON, the printed
// protocol trace and the causal view's critical path.
type viewHashes struct{ ring, prof, text, crit string }

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
// The critical-path column was added when the causal DAG became a view of
// the stream, generated at its parent through Config.Causal, the DAG's
// own recorder then, and not moved by the change. The change regenerated
// every ring hash, and no profile or text hash: each row gains a causal
// event per frame sent (its edge kind, the span in A, the parent in B),
// an arrive per acceptance no substrate span carries, a barrier root's
// unblock per crossing and an app-end per rank; serve spans carry their
// request's span in A, and call and verb spans their reply's or
// completion's span in B and the rank in Rank. No time moved.
// The three 3dfft rows were regenerated when the gather began reading its
// sources in rotation: each layer emits as many events of each kind as
// before, in another order and at other times (exec time udpgm 9.273 →
// 9.196 ms, fastgm 2.814 → 2.822, rdmagm 3.803 → 3.757), so all four
// hashes of each row moved.
// Every ring hash was regenerated, and nothing else, when the combining
// tree was deleted and Barrier split into a client and a manager half: a
// client no longer opens two empty masked sections per crossing, so the
// rings lose 1,113 zero-duration sim irq-masked events (171,094 → 169,981
// over the 12 rows) and no other event.
var goldenViews = map[string]viewHashes{
	"jacobi/udpgm":  {"554faaa58e13911a39d19df08840b4ebe75a6c820da1591d0b7f065765b4d1e8", "55ac37551c7e3c3f259d4710bac29f1cfde85b3dfa23d741f327b70403d07823", "50f92d22195e218dc27996a188a6afdf85ddb0e4e458d815a8601e7cab2dbdec", "08f1c8287764c47838aa9bc93e20644e1ffe803283c40123735c616ab2bc8caa"},
	"jacobi/fastgm": {"f96f1457d4708d2bf98d2db443a69bb57154642c3c6e90457cf8cb23d4d7ee0d", "84766b8c8d622b661776451c9d6a4930dbd96f84fd605323410708abb8423ebd", "7e78e06a5efd213287e036e913147132dd79c9d9af63d5604417fc387f638404", "e8378746568082759e097b9d26f86f3bc8fe12ff45519ad3b332ed2e0a8a281f"},
	"jacobi/rdmagm": {"e4286652979c12fc0cd90324fe04c41bd4a68380cf853042ae7bda06cd93f2b0", "bdebd3b17df60a0e7e05b996bcd01a7a8caeb665da6ac2a31e41ea2d7d12413d", "87cc02547f7cc0feb3bffea2ee73bde94176596e3d17d183ac6b21738b03df98", "7c1cd4b4f4761a652eef661238034c4c43647e352711ff28dd0b13cabb212855"},
	"sor/udpgm":     {"886451b9f756f27c43be579d1b79fdf734c367b41c4135afe4c3cd8c6d207dd2", "d46af62d23686491f855eee607fbe6a58a39cb5a44ded4acc6c263724c291f71", "19639bb5a2febb59a4a957dcb6b6004d615cde7d402ad8dda9a6162d752deab7", "0c6fc0cd313c6fb59830b7a7360ddd0c1d0f82e9dc3bb35ef32709f8e8054e1c"},
	"sor/fastgm":    {"96039a8329fec8c8a5cc81fba11a88fce5faac831f7c949414d247c3278b7999", "db9f8e44374b9148642110e63b86bb1c1c4629cef0a4089c76095788b356c0e6", "005af59a4c93c2654c74f9112f406344468e63e65142f6584854461bb761a1e1", "b5a5d79d5efcca966c806197ec6f8022614a7a5f1920a8c348d0c9bba6618768"},
	"sor/rdmagm":    {"eb3e83a62e58a1b238019c034bf43946fd8a2a673167830030f5eb30af658612", "ae2649951c486a56acbd6b9693bc55fc725ac5be07e4312e68d95b0c773030a4", "a72b5bb6a0b140f811cfbdb264ebcaf8c507b8971b50d1bd2ea33bc3ae9b31ed", "66882ab13c49359edf2fc33fe3a36d68d1931acd7e668cd7d110d669640b28e5"},
	"3dfft/udpgm":   {"a33c6f22ef200f2371621201d41cd37e757e76fef00d2a374e63aabf53a9c455", "02c7976c399238eda61d035a6dcdff41663f23c2edae3d63fa361d48bf0881b8", "e1af7806385f86c359801f906e9b9650fcbf01e6cd0cdb534b0379d286e2ba33", "6ae4d811606f39b668c16e0f9e6923fa3aaeb7f3a624ef5ce8b2e5b7b18433d6"},
	"3dfft/fastgm":  {"fcbb1f392cb75974df530f8ff2e381478ed4a1e078536e14f14a6a0403f37f5a", "4d36dfd4676a899c58868169c133fef84e52d67e7f7e3accdb83c2cb2df002ca", "f307adba2e3a69ba5d7f729f6b4af2ae48aa77eb365641270d28a5b545849b32", "a9a03f8b809b068cfe3247182db27de1047c8c26e5827e055e882fc8a1a69e5d"},
	"3dfft/rdmagm":  {"bd8ac504202cd55ff4c7d3c8a0ecbc04952d6e46446db6ea1547c3083e0830a9", "54322304033b34cc69b81018b38d079649ebae67d2f4f2c6182ebe49914a150b", "9446a195539dad989c84ebf2effa47146bf7467556cec65110070dd602be4e18", "712fd0f6fd81a9ccd6e0a5c3d81091d06713a8608e2f9379aa468d3666a53eb5"},
	"tsp/udpgm":     {"3b2078c00e4678b5dfc5181d5f8b0fe3e0646cac12bd9fc288e722b5cb39b718", "83ee91129f389a303b94ed650055bed4cbc53077016d634871a9ddea179c0348", "fe7d7e5489df2643a9393b82fec5afcaf7a049046706f5d9fac6f7e33dd7ac2e", "f1d7b9621fb6aa9de57baeae81e927c68d3aa53c79dff1083a7367e57e9bfaf5"},
	"tsp/fastgm":    {"a6a1bfa37c80a1141edb35bca69476796674582fa272b47a47833294b95ea6b8", "437b0c7c1255b72185e1cbeffedfaa4b41b8e5032a70c00cdb36a767e7d671ae", "1515925bb10c8d84f1e44d8789825c42d1f748bd9cbfa9af8ec84fa62ba5f43b", "880d04bc36a348e04d3b0103620d2f834cf13137d50c069a7420b6524014bf31"},
	"tsp/rdmagm":    {"137e2af506b7731ed1f2b40d6c0b6f23852dfc894602acefa1f11ed2402d7a33", "acbce338c363560539acb319751b40ab8282ef468f2dd6a6071d1e06781c0c3b", "3db25a17a50b4a9a70de4dc48608170f7e9b8f30ad1088ab06fbf5257c7b514e", "e56329e5a3d3284d57a6f68af8cdf7f5dde80841122ba81196f572e67aa6d582"},
}

// TestObserverViewsGolden runs every application at its smallest ladder
// size on 4 nodes over each substrate with every view subscribed to one
// tracer and compares their content against goldenViews.
func TestObserverViewsGolden(t *testing.T) {
	for _, name := range AppNames {
		app := SizeLadder(name)[0]
		for _, kind := range AllTransports {
			key := fmt.Sprintf("%s/%s", name, kind)
			t.Run(key, func(t *testing.T) {
				cfg := tmk.DefaultConfig(4, kind)
				tracer, pf, text, cz := trace.New(1<<20), prof.New(), sha256.New(), trace.NewCausal()
				tracer.Subscribe(pf.Observe)
				tracer.Subscribe(tmk.TextTrace(text))
				tracer.Subscribe(cz.Observe)
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
				crit := sha256.New()
				cp := cz.CriticalPath()
				fmt.Fprintln(crit, cz.Len(), cz.DupArrivals(), cp.EndRank, cp.EndT)
				for _, s := range cp.Segs {
					fmt.Fprintln(crit, s.Cat, s.Kind, s.From, s.To, s.Start, s.End)
				}
				got := viewHashes{
					ring: fmt.Sprintf("%x", ring.Sum(nil)),
					prof: fmt.Sprintf("%x", profile.Sum(nil)),
					text: fmt.Sprintf("%x", text.Sum(nil)),
					crit: fmt.Sprintf("%x", crit.Sum(nil)),
				}
				if want := goldenViews[key]; got != want {
					t.Errorf("views moved (ring %v, prof %v, text %v, crit %v); got row:\n\t%q: {%q, %q, %q, %q},",
						got.ring == want.ring, got.prof == want.prof, got.text == want.text, got.crit == want.crit,
						key, got.ring, got.prof, got.text, got.crit)
				}
			})
		}
	}
}
