package harness

import (
	"fmt"
	"io"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/ubench"
)

// E6 — scalability study (paper §5, future work: "scaling a DSM system
// to a cluster having 256 nodes"). The FAST/GM design needs only two GM
// ports regardless of cluster size, but its preposted receive buffers
// grow linearly with n: the paper computes ≈16 MB per node at 256 nodes
// with full preposting and ≈6 MB with the rendezvous protocol. This
// experiment measures exactly that trade-off on growing clusters,
// together with barrier latency and the baseline's socket count (which
// grows as 2(n−1) per node).

// E6Row is one cluster size's scalability profile.
type E6Row struct {
	Nodes          int
	Barrier        sim.Time // FAST/GM flat centralized barrier
	PinnedPrepost  int64    // bytes/node, full preposting
	PinnedRendez   int64    // bytes/node, rendezvous
	UDPSocketsNode int      // sockets per node under UDP/GM
}

// Scaling sweeps cluster sizes.
func Scaling(sizes []int) ([]E6Row, error) {
	var rows []E6Row
	for _, n := range sizes {
		row := E6Row{Nodes: n, UDPSocketsNode: 2 * (n - 1)}
		cfg := tmk.DefaultConfig(n, tmk.TransportFastGM)
		br, err := ubench.Barrier(cfg, 5)
		if err != nil {
			return nil, fmt.Errorf("scaling %d: %w", n, err)
		}
		row.Barrier = br.Per

		for _, rendezvous := range []bool{false, true} {
			cfg := tmk.DefaultConfig(n, tmk.TransportFastGM)
			cfg.Rendezvous = rendezvous
			cluster := tmk.NewCluster(cfg)
			if _, err := cluster.Run(func(tp *tmk.Proc) {
				// Touch the transport only; the pinned footprint of the
				// preposting strategy is established at Start.
				tp.Barrier(1)
			}); err != nil {
				return nil, fmt.Errorf("scaling %d (rv=%v): %w", n, rendezvous, err)
			}
			pinned := cluster.GM().Node(myrinet.NodeID(0)).MaxPinnedBytes()
			if rendezvous {
				row.PinnedRendez = pinned
			} else {
				row.PinnedPrepost = pinned
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintScaling renders the E6 table.
func PrintScaling(w io.Writer, rows []E6Row) {
	fprintf(w, "E6 — scalability toward 256 nodes (§2.2.2 memory math, §5 future work)\n")
	fprintf(w, "%6s %14s %16s %16s %14s\n",
		"nodes", "barrier(flat)", "pinned/node", "pinned(rendez)", "UDP sockets")
	for _, r := range rows {
		fprintf(w, "%6d %14v %13.2f MB %13.2f MB %14d\n",
			r.Nodes, r.Barrier,
			float64(r.PinnedPrepost)/1e6, float64(r.PinnedRendez)/1e6, r.UDPSocketsNode)
	}
}
