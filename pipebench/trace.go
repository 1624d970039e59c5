package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"mpcspanner"
	"mpcspanner/internal/oracle"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are offsets from the recorder's epoch. Req is the
// generator's request id (0 outside traffic), shared by every span of one
// request.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span times: the part of its name before the dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. A nil *recorder is an
// untraced run: every method is a no-op that reads no clock.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a started span; end records it.
type open struct {
	r *recorder
	s span
}

func (r *recorder) begin(name string, parent, req int64) open {
	if r == nil {
		return open{}
	}
	return open{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(r.epoch)}}
}

func (o open) id() int64 { return o.s.ID }

func (o open) end() {
	if o.r == nil {
		return
	}
	o.s.End = time.Since(o.r.epoch)
	o.r.add(o.s)
}

// record adds a span whose bounds were taken elsewhere, such as the build's
// progress events.
func (r *recorder) record(name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(span{ID: r.ids.Add(1), Parent: parent, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// The generator names its request id and span in these headers; the
// handler wrapper reads them back so server-side spans join the request.
const (
	hdrReq  = "X-Pipebench-Req"
	hdrSpan = "X-Pipebench-Span"
)

type spanKey struct{}

type spanRef struct{ id, req int64 }

// wrapHandler times the replica's whole HTTP surface per request and tags
// the request context with the generator's request id.
func (r *recorder) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		req, _ := strconv.ParseInt(q.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(q.Header.Get(hdrSpan), 10, 64)
		sp := r.begin("server.handler", parent, req)
		ctx := context.WithValue(q.Context(), spanKey{}, spanRef{id: sp.id(), req: req})
		h.ServeHTTP(w, q.WithContext(ctx))
		sp.end()
	})
}

// tracedBackend is the server.Backend the traced replica serves through: it
// times each Session.QueryMany under the handler span that called it.
type tracedBackend struct {
	sess *mpcspanner.Session
	r    *recorder
}

func (b tracedBackend) QueryMany(ctx context.Context, pairs []oracle.Pair) ([]float64, error) {
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	sp := b.r.begin("oracle.query_many", parent.id, parent.req)
	out, err := b.sess.QueryMany(ctx, pairs)
	sp.end()
	return out, err
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable prints, per layer and per span name, the span count and
// the total and self time, with each layer's share of all self time.
func printSelfTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		count      int
		total, own time.Duration
	}
	byName := map[string]*agg{}
	byLayer := map[string]*agg{}
	var all time.Duration
	add := func(m map[string]*agg, key string, s span) {
		a := m[key]
		if a == nil {
			a = &agg{}
			m[key] = a
		}
		a.count++
		a.total += s.dur()
		a.own += self[s.ID]
	}
	for _, s := range spans {
		add(byName, s.Name, s)
		add(byLayer, s.layer(), s)
		all += self[s.ID]
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer / span\tspans\ttotal s\tself s\tself share\t\n")
	for _, layer := range sortedKeys(byLayer) {
		a := byLayer[layer]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.1f%%\t\n", layer, a.count, a.total.Seconds(), a.own.Seconds(),
			100*a.own.Seconds()/max(all.Seconds(), 1e-9))
		for _, name := range sortedKeys(byName) {
			if l, _, _ := strings.Cut(name, "."); l != layer {
				continue
			}
			b := byName[name]
			fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\t\t\n", name, b.count, b.total.Seconds(), b.own.Seconds())
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "self share base: %.3f s of self time summed over all %d spans\n", all.Seconds(), len(spans))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
