package harness

import (
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
)

// WireKind is one request kind's two-sided traffic in a traced run:
// requests as the serve spans that handled them recorded them, and the
// replies that answered them as the call spans they completed recorded
// them. A reply is listed under the request it answers (a barrier release
// under barrier-arrive). Duplicates the filter absorbed are not served, and
// one-sided verbs are neither calls nor served, so neither is counted.
type WireKind struct {
	Kind                   string
	Requests, RequestBytes int64
	Replies, ReplyBytes    int64
}

// WireBytes sums a traced run's call and serve spans by request kind,
// largest reply bytes first (then by name).
func WireBytes(events []trace.Event) []WireKind {
	byKind := map[string]*WireKind{}
	row := func(kind string) *WireKind {
		if byKind[kind] == nil {
			byKind[kind] = &WireKind{Kind: kind}
		}
		return byKind[kind]
	}
	for _, e := range events {
		if e.Layer != trace.LayerSubstrate {
			continue
		}
		if kind, ok := strings.CutPrefix(e.Kind, "serve:"); ok {
			r := row(kind)
			r.Requests++
			r.RequestBytes += int64(e.Bytes)
		} else if kind, ok := strings.CutPrefix(e.Kind, "call:"); ok {
			r := row(kind)
			r.Replies++
			r.ReplyBytes += int64(e.Bytes)
		}
	}
	out := make([]WireKind, 0, len(byKind))
	for _, r := range byKind {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ReplyBytes != out[j].ReplyBytes {
			return out[i].ReplyBytes > out[j].ReplyBytes
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// PrintWireBytes writes rows as a table under title, with a total line
// and the run's continued reply frames (substrate.Stats.ContinuedFrames):
// frames a reply carried past its first, which a reply capped at one frame
// would have left to another request.
func PrintWireBytes(w io.Writer, title string, rows []WireKind, continued int64) {
	fprintf(w, "%s\n", title)
	fprintf(w, "  %-18s %9s %12s %9s %12s\n", "request kind", "requests", "bytes", "replies", "bytes")
	var total WireKind
	for _, r := range rows {
		fprintf(w, "  %-18s %9d %12d %9d %12d\n", r.Kind, r.Requests, r.RequestBytes, r.Replies, r.ReplyBytes)
		total.Requests += r.Requests
		total.RequestBytes += r.RequestBytes
		total.Replies += r.Replies
		total.ReplyBytes += r.ReplyBytes
	}
	fprintf(w, "  %-18s %9d %12d %9d %12d\n", "total", total.Requests, total.RequestBytes, total.Replies, total.ReplyBytes)
	fprintf(w, "  %d messages, %d bytes; %d continued reply frames\n",
		total.Requests+total.Replies, total.RequestBytes+total.ReplyBytes, continued)
}
