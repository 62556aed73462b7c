package tmk

import (
	"fmt"

	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/rdmagm"
	"repro/internal/substrate/udpgm"
	"repro/internal/trace"
)

// TransportKind selects the communication substrate.
type TransportKind string

// The two substrates the paper evaluates, plus the one-sided extension.
const (
	TransportUDPGM  TransportKind = "udpgm"  // baseline: UDP over Sockets-GM
	TransportFastGM TransportKind = "fastgm" // the paper's substrate
	TransportRDMAGM TransportKind = "rdmagm" // fastgm plus one-sided RDMA verbs
)

// Config assembles a DSM run.
type Config struct {
	Procs     int
	Transport TransportKind
	Seed      int64

	// Scheme selects how FAST/GM — and rdmagm's two-sided half — detects
	// an asynchronous request (paper §2.2.4, experiment E4); the zero
	// value is the paper's NIC interrupt.
	Scheme fastgm.AsyncScheme
	// Rendezvous carries FAST/GM's large messages by RTS/CTS instead of
	// preposted buffers (paper §2.2.2, experiment E5).
	Rendezvous bool
	// Faults is the fabric's fault-injection schedule (the chaos sweep);
	// the zero value is a perfect fabric.
	Faults myrinet.FaultConfig

	// HomeBased selects the home-based lazy-release-consistency protocol:
	// every page gets a statically assigned home rank, diffs are
	// RDMA-written into the home's window when the interval closes, and a
	// read fault RDMA-reads the whole page from the home — no request
	// handler and no asynchronous delivery on the page hot path. Requires
	// a transport implementing substrate.OneSided (TransportRDMAGM).
	HomeBased bool

	// BarrierFanout selects the barrier topology: 0 or 1 is the paper's
	// flat centralized barrier at rank 0; k ≥ 2 uses a k-ary combining
	// tree (the §5 future-work optimization for large clusters).
	BarrierFanout int

	// Trace, when non-nil, attaches a structured tracer to the run's
	// simulator: every layer records typed events and metrics into it,
	// tmk one event per protocol occurrence. The protocol trace
	// (TextTrace) and the entity profiler subscribe to it. Tracing is
	// observation only — virtual-time results are identical with and
	// without it.
	Trace *trace.Tracer

	// Causal, when non-nil, attaches the causal-DAG collector (DESIGN.md
	// §13): every substrate frame carries a compact trace context as
	// uncharged envelope metadata and is recorded as a typed edge. Like
	// Trace it is observation only — causal-on runs are bit-identical to
	// causal-off ones.
	Causal *trace.Causal

	// Crash configures the crash-failure model: the seeded injector and
	// the recovery policy (abort with a post-mortem, or restart of the
	// whole run). A trigger arms the injector and the substrate's failure
	// detector with it, Restart the restart; the zero value is a run
	// without a crash model.
	Crash CrashConfig

	// Hedge arms hedged re-issues of straggling calls in whichever
	// substrate the run uses. With the failure detector it is the run's one
	// substrate.Policy. Off, the run is bit-identical to one without it
	// (DESIGN.md §14).
	Hedge bool
}

// DefaultConfig returns a calibrated n-process configuration. The
// one-sided transport defaults to the protocol built for it: home-based
// LRC (pass cfg.HomeBased = false explicitly to run homeless LRC over
// rdmagm's two-sided half).
func DefaultConfig(n int, kind TransportKind) Config {
	return Config{
		Procs:     n,
		Transport: kind,
		Seed:      1,
		HomeBased: kind == TransportRDMAGM,
	}
}

// testbed is what a cluster builds the layers above the fabric from: each
// package's defaults plus the Config features they take. Only tests change
// it (export_test.go).
type testbed struct {
	Sockets sockets.Params
	UDP     udpgm.Config
	Fast    fastgm.Config
}

// Cluster is one assembled DSM run.
type Cluster struct {
	cfg    Config
	err    error            // Config.Validate's verdict; Run reports it
	pol    substrate.Policy // the run's one cluster-uniform substrate policy
	tb     testbed          // what the sockets and substrates are built from
	n      int              // ranks (= Config.Procs)
	sim    *sim.Simulator
	fabric *myrinet.Fabric
	gmsys  *gm.System
	stacks []*sockets.Stack
	procs  []*Proc // current generation, indexed by rank

	// allProcs accumulates every generation's engines so aggregate
	// statistics survive a crash-and-restart.
	allProcs []*Proc
	appFn    func(tp *Proc)
	crash    crashState

	nextRegionID int32
	nextPage     int32
}

// Result summarizes a completed run.
type Result struct {
	// ExecTime is the application execution time: the maximum over
	// processes of (app end − app start), excluding setup.
	ExecTime sim.Time
	// PerProc are the individual app intervals.
	PerProc []sim.Time
	// Stats aggregates DSM counters across processes.
	Stats Stats
	// Transport aggregates substrate counters across processes.
	Transport substrate.Stats
	// MaxPinnedBytes is the high-water pinned memory across nodes (GM
	// registration accounting; the rendezvous ablation's metric).
	MaxPinnedBytes int64
	// DisabledPorts counts GM ports still disabled at the end of the run —
	// zero on any successful run: every send timeout must have been
	// answered by a resume (the chaos harness's residual-damage invariant).
	DisabledPorts int
	// ParkedFrames sums GM frames that arrived with no prepost buffer
	// across all ports — the countdown toward a port disable that the
	// preposting discipline exists to prevent.
	ParkedFrames int64
	// PortTimeouts sums parked frames that expired into a sender-visible
	// send timeout (each one disabled a port until resumed).
	PortTimeouts int64
	// SocketDrops sums kernel datagram drops from receive-buffer overflow
	// across all socket stacks (udpgm's overload signal).
	SocketDrops int64
	// NetFaults reports what the fault-injection fabric actually did.
	NetFaults myrinet.FaultStats
	// Crash is the watchdog's post-mortem when a rank died (nil
	// otherwise): who died, who detected it, what every survivor was
	// blocked on, and whether recovery restarted or aborted the run.
	Crash *CrashReport
	// PeerFailure is the first typed transport give-up recorded across
	// all generations, or nil.
	PeerFailure *substrate.PeerUnreachableError
}

// finalBarrier is the implicit shutdown barrier id.
const finalBarrier int32 = 1<<31 - 1

// NewCluster assembles the simulator, fabric, GM, kernels, and per-rank
// transports; Run then executes the application. A Config that fails
// Validate assembles nothing: Run returns the verdict (and GM is nil).
func NewCluster(cfg Config) *Cluster { return newCluster(cfg, nil) }

// newCluster is NewCluster with tune, when non-nil, applied to the
// testbed before anything is built.
func newCluster(cfg Config, tune func(*testbed)) *Cluster {
	c := &Cluster{cfg: cfg, n: cfg.Procs}
	if c.err = cfg.Validate(); c.err != nil {
		return c
	}
	c.tb = testbed{Sockets: sockets.DefaultParams(), UDP: udpgm.DefaultConfig(), Fast: fastgm.DefaultConfig()}
	c.tb.Fast.Scheme, c.tb.Fast.Rendezvous = cfg.Scheme, cfg.Rendezvous
	if tune != nil {
		tune(&c.tb)
	}
	// The failure detector runs exactly when something can die: a crash
	// trigger without it would leave survivors blocked on the dead rank
	// forever.
	c.pol = substrate.Policy{Liveness: cfg.Crash.hasTrigger(), Hedge: cfg.Hedge}
	c.sim = sim.New(cfg.Seed)
	if cfg.Trace != nil {
		c.sim.SetTracer(cfg.Trace)
	}
	if cfg.Causal != nil {
		c.sim.SetCausal(cfg.Causal)
	}
	c.fabric = myrinet.NewFabric(c.sim, myrinet.Params{Faults: cfg.Faults}, c.n)
	c.gmsys = gm.NewSystem(c.sim, c.fabric, gm.DefaultParams())
	if cfg.Transport == TransportUDPGM {
		c.stacks = make([]*sockets.Stack, c.n)
		for i := 0; i < c.n; i++ {
			c.stacks[i] = sockets.NewStack(c.sim, c.gmsys.Node(myrinet.NodeID(i)), c.tb.Sockets)
		}
	}
	return c
}

// GM exposes the GM system (pinned-memory accounting).
func (c *Cluster) GM() *gm.System { return c.gmsys }

// Proc returns the rank's DSM engine (valid after Run starts it).
func (c *Cluster) Proc(rank int) *Proc { return c.procs[rank] }

// spawnGeneration launches one process per rank for generation gen, each
// running the application from its first line: Run launches generation 0,
// and a restart (afterCrash) launches generation 1 the same way.
func (c *Cluster) spawnGeneration(gen int) {
	n := c.n
	if c.procs == nil {
		c.procs = make([]*Proc, n)
	}
	started := 0
	startCond := sim.NewCond("tmk:start")
	finished := 0
	finCond := sim.NewCond("tmk:finish")
	for rank := 0; rank < n; rank++ {
		rank := rank
		name := fmt.Sprintf("tmk%d", rank)
		if gen > 0 {
			name = fmt.Sprintf("tmk%d.g%d", rank, gen)
		}
		c.sim.Spawn(name, 0, func(sp *sim.Proc) {
			var tr substrate.Transport
			switch node := c.gmsys.Node(myrinet.NodeID(rank)); c.cfg.Transport {
			case TransportUDPGM:
				tr = udpgm.New(c.stacks[rank], rank, n, c.pol, c.tb.UDP)
			case TransportFastGM:
				tr = fastgm.New(node, rank, n, c.pol, c.tb.Fast)
			case TransportRDMAGM:
				tr = rdmagm.New(node, rank, n, c.pol, c.tb.Fast)
			}
			tp := newProc(c, rank, sp, tr)
			tp.gen = gen
			c.procs[rank] = tp
			c.allProcs = append(c.allProcs, tp)
			tr.Start(sp, tp.handleRequest)
			// The stall watchdog rides on the transport's failure
			// detector: any declared-dead peer (liveness miss or retry
			// exhaustion) triggers coordinated teardown instead of an
			// unbounded wait.
			tr.SetOnPeerDead(func(peer int, err error) {
				c.handleCrash(rank, peer, err)
			})

			// Setup rendezvous: no DSM traffic before every rank has
			// preposted its buffers (the real system synchronizes via
			// the launcher).
			started++
			startCond.Broadcast()
			for started < n {
				sp.WaitOn(startCond)
			}

			tp.appStart = sp.Now()
			c.appFn(tp)
			tp.Barrier(finalBarrier)
			tp.appEnd = sp.Now()
			if cz := c.sim.Causal(); cz != nil {
				cz.End(rank, int64(tp.appEnd))
			}

			// Shutdown rendezvous (out of band, like the launcher's): on a
			// lossy fabric a peer may still be retrying a request whose
			// reply was lost — its recovery needs our duplicate cache, so
			// no transport closes until every rank is through the final
			// barrier. Costs no virtual time and sends no messages.
			finished++
			finCond.Broadcast()
			for finished < n {
				sp.WaitOn(finCond)
			}
			tr.Shutdown(sp)
		})
	}
}

// Run executes app on every rank and returns the result. The app
// receives its rank's Proc; a final barrier is implicit.
func (c *Cluster) Run(app func(tp *Proc)) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	n := c.n
	c.appFn = app
	c.spawnGeneration(0)
	if cc := c.cfg.Crash; cc.AtTime > 0 {
		c.sim.At(cc.AtTime, func() {
			if tp := c.procs[cc.Rank]; tp != nil && tp.gen == 0 {
				tp.sp.Kill()
			}
		})
	}
	if err := c.sim.Run(); err != nil {
		return nil, err
	}
	res := &Result{PerProc: make([]sim.Time, n)}
	for i, tp := range c.procs {
		d := tp.appEnd - tp.appStart
		if tp.appEnd < tp.appStart {
			d = 0 // killed before completing (crash-model teardown)
		}
		res.PerProc[i] = d
		if d > res.ExecTime {
			res.ExecTime = d
		}
	}
	for _, tp := range c.allProcs {
		res.Stats.Add(&tp.stats)
		res.Transport.Add(tp.tr.Stats())
		if res.PeerFailure == nil {
			res.PeerFailure = tp.tr.PeerFailure()
		}
	}
	for i := 0; i < n; i++ {
		node := c.gmsys.Node(myrinet.NodeID(i))
		if mp := node.MaxPinnedBytes(); mp > res.MaxPinnedBytes {
			res.MaxPinnedBytes = mp
		}
		for id := gm.MapperPort + 1; id < gm.NumPorts; id++ {
			if port := node.Port(id); port != nil {
				if !port.Enabled() {
					res.DisabledPorts++
				}
				ps := port.Stats()
				res.ParkedFrames += ps.Parked
				res.PortTimeouts += ps.Timeouts
			}
		}
	}
	for _, st := range c.stacks {
		res.SocketDrops += st.Stats().DatagramsDrop
	}
	res.NetFaults = c.fabric.FaultStats()
	res.Crash = c.crash.report
	if res.Crash != nil && res.Crash.Action == "abort" {
		return res, &CrashAbortError{Report: res.Crash}
	}
	return res, nil
}

// Run is the one-call entry point: assemble a cluster and execute app.
func Run(cfg Config, app func(tp *Proc)) (*Result, error) {
	return NewCluster(cfg).Run(app)
}
