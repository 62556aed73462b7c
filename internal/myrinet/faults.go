package myrinet

import (
	"hash/crc32"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Fault injection for the fabric model. The real system's central hazard
// (paper Section 2.2) is GM's reaction to lost traffic: a message that is
// never accepted times out after 3 s and disables the sending port. The
// production stack above this model must survive exactly that, so the
// fabric can be configured to lose, corrupt, and delay packets — and to
// black out whole links for a window of virtual time — under the
// simulator's deterministic RNG: the same seed always produces the same
// fault schedule, so any chaos failure replays exactly.
//
// With every probability zero and no blackout windows the injector is
// never consulted: no RNG draws, no CRC work, no extra events — runs are
// bit-identical to a fabric built without a FaultConfig at all.

// Blackout is a window of virtual time during which every packet injected
// on a matching directed link is lost (a cable pull / switch port flap).
// Src or Dst may be -1 to match any node. The window is half-open:
// packets injected at t with From ≤ t < To are lost.
type Blackout struct {
	Src, Dst NodeID // -1 = wildcard
	From, To sim.Time
}

// DropNext deterministically drops the next Count packets injected on a
// matching directed link at or after From — no RNG draw, so the rest of
// the run's fault schedule is unperturbed. Src or Dst may be -1 to match
// any node. Used by conformance tests that need to lose exactly one
// known packet (e.g. one reply of a scatter-gather pair).
type DropNext struct {
	Src, Dst NodeID   // -1 = wildcard
	From     sim.Time // rule is dormant before this instant
	Count    int      // packets remaining to drop; decremented per hit
}

// FaultConfig is the fabric-wide fault schedule.
type FaultConfig struct {
	Drop      float64  // per-packet loss probability
	Corrupt   float64  // per-packet payload-corruption probability
	DelayProb float64  // per-packet latency-spike probability
	DelayMax  sim.Time // spike size: uniform in (0, DelayMax]

	Blackouts []Blackout // timed link outages
	DropNexts []DropNext // deterministic one-shot drops
}

// Enabled reports whether the configuration can ever inject a fault (or
// requires per-packet bookkeeping such as CRC stamping). Disabled configs
// cost nothing: SendPacket never consults the RNG.
func (fc *FaultConfig) Enabled() bool {
	return fc.Drop > 0 || fc.Corrupt > 0 || fc.DelayProb > 0 ||
		len(fc.Blackouts) > 0 || len(fc.DropNexts) > 0
}

// inBlackout reports whether the directed link is blacked out at t.
func (fc *FaultConfig) inBlackout(src, dst NodeID, t sim.Time) bool {
	for i := range fc.Blackouts {
		b := &fc.Blackouts[i]
		if (b.Src == -1 || b.Src == src) && (b.Dst == -1 || b.Dst == dst) &&
			t >= b.From && t < b.To {
			return true
		}
	}
	return false
}

// FaultStats counts injected faults fabric-wide.
type FaultStats struct {
	Dropped   int64 // packets lost to random drop
	Blackout  int64 // packets lost inside a blackout window
	Corrupted int64 // packets whose payload was flipped in flight
	CRCDrops  int64 // corrupted packets discarded at the NIC/GM boundary
	Delayed   int64 // packets given a latency spike
}

// injection is the fault decision for one packet, made at send time with
// deterministic RNG draws (one per configured, non-zero probability).
type injection struct {
	drop    bool
	corrupt bool
	delay   sim.Time
}

// inject decides this packet's fate and applies payload corruption to the
// already-copied payload. Called only when faults are enabled.
func (f *Fabric) inject(now sim.Time, src, dst NodeID, payload []byte, crc *uint32) injection {
	var in injection
	fc := &f.faults
	// Deterministic one-shot drops fire before any probabilistic rule and
	// draw no RNG, so arming one perturbs nothing else in the schedule.
	for i := range fc.DropNexts {
		d := &fc.DropNexts[i]
		if d.Count > 0 && now >= d.From &&
			(d.Src == -1 || d.Src == src) && (d.Dst == -1 || d.Dst == dst) {
			d.Count--
			f.fstats.Dropped++
			f.traceFault("fault-drop-next", src, dst, len(payload))
			in.drop = true
			return in
		}
	}
	if fc.inBlackout(src, dst, now) {
		f.fstats.Blackout++
		f.traceFault("fault-blackout", src, dst, len(payload))
		in.drop = true
		return in
	}
	rng := f.s.Rand()
	if fc.Drop > 0 && rng.Float64() < fc.Drop {
		f.fstats.Dropped++
		f.traceFault("fault-drop", src, dst, len(payload))
		in.drop = true
		return in
	}
	if fc.Corrupt > 0 && rng.Float64() < fc.Corrupt {
		f.fstats.Corrupted++
		f.traceFault("fault-corrupt", src, dst, len(payload))
		in.corrupt = true
		if len(payload) > 0 {
			payload[len(payload)/2] ^= 0xFF
		} else {
			*crc ^= 1 // empty payload: corrupt the frame check sequence
		}
	}
	if fc.DelayProb > 0 && rng.Float64() < fc.DelayProb {
		in.delay = sim.Time(rng.Float64() * float64(fc.DelayMax))
		f.fstats.Delayed++
		f.traceFault("fault-delay", src, dst, len(payload))
	}
	return in
}

// traceFault records one injected fault as a trace event.
func (f *Fabric) traceFault(kind string, src, dst NodeID, bytes int) {
	if tr := f.s.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(f.s.Now()),
			Layer: trace.LayerMyrinet, Kind: kind,
			Proc: int(src), Peer: int(dst), Bytes: bytes})
	}
}

// packetCRC is the frame check sequence the NIC stamps on injection and
// verifies before handing the packet to GM; a mismatch is a silent
// link-level discard (GM never sees the packet, so its loss semantics —
// resend timeout, port disable — take over).
func packetCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// FaultStats returns a copy of the fabric-wide fault counters.
func (f *Fabric) FaultStats() FaultStats { return f.fstats }

// FaultsEnabled reports whether fault injection is configured at all.
func (f *Fabric) FaultsEnabled() bool { return f.faultsOn }

// SetFaults installs (or with a zero config clears) the fault schedule.
// May be called mid-simulation; it affects packets injected afterwards.
func (f *Fabric) SetFaults(fc FaultConfig) {
	f.faults = fc
	f.faultsOn = fc.Enabled()
}
