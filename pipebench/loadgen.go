package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pair is one (source, target) distance query.
type pair struct{ u, v int }

// loadgen is the benchmark's own request generator. It speaks the
// documented /v1/query wire format itself, not through server.Client, so a
// change to client code cannot move the numbers. Each connection belongs
// to one sender goroutine.
type loadgen struct {
	url     string
	clients []*http.Client
	tr      *recorder
	reqs    atomic.Int64 // request ids, shared by all phases of a run
}

func newLoadgen(base string, conns int, tr *recorder, reqs int64) *loadgen {
	g := &loadgen{url: base + "/v1/query", tr: tr}
	g.reqs.Store(reqs)
	for range conns {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// phase is one stretch of traffic. Request i is due at i/rate after the
// phase starts; rate 0 sends each request as soon as a connection is free
// and times it from its send.
type phase struct {
	name   string
	rate   float64
	count  int
	pairs  func(i int, dst []pair) []pair
	sample func(i int) bool // keep request i's answers for the bit-identity check
	parent int64            // span the phase's span belongs to
}

// answer is one served distance kept for the bit-identity check.
type answer struct {
	req  int // request index within its phase
	u, v int
	d    float64
}

// outcome is what one phase measured.
type outcome struct {
	name string
	rate float64

	sent, ok, shed, failed int
	errs                   []string // the first few failures

	lat    []float64       // ms from due to response; +Inf when shed or failed
	late   []float64       // ms from due to send
	sentAt []time.Duration // send time of request i, from the phase start
	reqIDs []int64         // trace request id of request i

	backlogMax int // most requests due and not yet sent, seen at any send
	answers    []answer
}

// run sends ph's requests over every connection and waits for all of them.
func (g *loadgen) run(ctx context.Context, ph phase) *outcome {
	o := &outcome{name: ph.name, rate: ph.rate,
		lat: make([]float64, ph.count), late: make([]float64, ph.count),
		sentAt: make([]time.Duration, ph.count), reqIDs: make([]int64, ph.count)}
	var interval time.Duration
	if ph.rate > 0 {
		interval = time.Duration(float64(time.Second) / ph.rate)
	}
	psp := g.tr.begin("loadgen.phase", ph.parent, 0)
	defer psp.end()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			var resp bytes.Buffer
			var ps []pair
			var ds []float64
			var ok, shed, failed int
			var errs []string
			var kept []answer
			for {
				i := int(next.Add(1) - 1)
				if i >= ph.count || ctx.Err() != nil {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					sleep(d)
				}
				sent := time.Now()
				if ph.rate == 0 {
					due = sent
				}
				ps = ph.pairs(i, ps[:0])
				body = appendQuery(body[:0], ps)
				req := g.reqs.Add(1)
				sp := g.tr.begin("loadgen.request", psp.id(), req)
				status, err := g.post(ctx, cl, body, &resp, req, sp.id())
				if err == nil && status == http.StatusOK {
					ds, err = parseDistances(resp.Bytes(), ds[:0])
					if err == nil && len(ds) != len(ps) {
						err = fmt.Errorf("%d distances for %d pairs", len(ds), len(ps))
					}
				}
				sp.end()
				done := time.Now()
				o.sentAt[i], o.reqIDs[i] = sent.Sub(start), req
				o.late[i] = ms(sent.Sub(due))
				o.lat[i] = math.Inf(1)
				switch {
				case err != nil:
					failed++
					if len(errs) < 3 {
						errs = append(errs, err.Error())
					}
				case status == http.StatusTooManyRequests:
					shed++
				case status != http.StatusOK:
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(resp.Bytes())))
					}
				default:
					ok++
					o.lat[i] = ms(done.Sub(due))
					if ph.sample != nil && ph.sample(i) {
						for j, p := range ps {
							kept = append(kept, answer{req: i, u: p.u, v: p.v, d: ds[j]})
						}
					}
				}
			}
			mu.Lock()
			o.ok += ok
			o.shed += shed
			o.failed += failed
			o.errs = append(o.errs, errs...)
			o.answers = append(o.answers, kept...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	o.sent = o.ok + o.shed + o.failed
	sort.Slice(o.answers, func(i, j int) bool { return o.answers[i].req < o.answers[j].req })
	if interval > 0 {
		for i, at := range o.sentAt[:o.sent] {
			due := min(int(at/interval)+1, ph.count)
			o.backlogMax = max(o.backlogMax, due-i-1)
		}
	}
	return o
}

// sleep blocks the calling thread in the kernel for d. Go's timers wake a
// process that idles in the network poller at millisecond granularity,
// which would make requests due less than a millisecond apart late by
// design; nanosleep wakes within tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// post sends one /v1/query body and reads the whole response into resp.
func (g *loadgen) post(ctx context.Context, cl *http.Client, body []byte, resp *bytes.Buffer, req, spanID int64) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if g.tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(spanID, 10))
	}
	r, err := cl.Do(hr)
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	resp.Reset()
	if _, err := resp.ReadFrom(r.Body); err != nil {
		return 0, err
	}
	return r.StatusCode, nil
}

// appendQuery encodes the POST /v1/query body {"pairs":[{"u":0,"v":9},...]}.
func appendQuery(b []byte, ps []pair) []byte {
	b = append(b, `{"pairs":[`...)
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(p.u), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(p.v), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// parseDistances decodes the 200 body {"distances":[1.5,null,...]}, where
// null is an unreachable pair (+Inf).
func parseDistances(body []byte, dst []float64) ([]float64, error) {
	const prefix, suffix = `{"distances":[`, `]}`
	s := bytes.TrimSpace(body)
	if !bytes.HasPrefix(s, []byte(prefix)) || !bytes.HasSuffix(s, []byte(suffix)) {
		return dst, errors.New("malformed /v1/query response")
	}
	s = s[len(prefix) : len(s)-len(suffix)]
	for len(s) > 0 {
		tok := s
		if i := bytes.IndexByte(s, ','); i >= 0 {
			tok, s = s[:i], s[i+1:]
		} else {
			s = nil
		}
		if string(tok) == "null" {
			dst = append(dst, math.Inf(1))
			continue
		}
		d, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return dst, fmt.Errorf("malformed distance %q", tok)
		}
		dst = append(dst, d)
	}
	return dst, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// p50 is the median latency of the phase, shed and failed requests
// counting as infinitely late.
func (o *outcome) p50() float64 {
	return quantile(append([]float64(nil), o.lat[:o.sent]...), 0.5)
}

// window is the fewest requests whose p99 has ten samples beyond it.
const window = 1000

// p99 splits the phase into consecutive windows of at least window
// requests and returns the median of their p99s; a phase shorter than two
// windows gets its plain p99. A host stall of tens of milliseconds, which
// a shared virtual machine shows a few times a minute, then moves one
// window's p99 rather than the phase's. Shed and failed requests count as infinitely
// late.
func (o *outcome) p99() float64 {
	k := max(o.sent/window, 1)
	ps := make([]float64, k)
	for w := range ps {
		ps[w] = quantile(append([]float64(nil), o.lat[w*o.sent/k:(w+1)*o.sent/k]...), 0.99)
	}
	return median(ps)
}

// score is what a ladder step is judged by: its p99, or the median
// lateness of its last quarter of requests if that is worse. A backlog
// that grows through the step makes the late requests later and later,
// while a host stall delays a burst of them and passes.
func (o *outcome) score() float64 {
	if o.sent == 0 {
		return math.Inf(1)
	}
	return max(o.p99(), median(o.late[o.sent*3/4:o.sent]))
}

// meets reports whether the phase kept its score within limit.
func (o *outcome) meets(limit time.Duration) bool { return o.score() <= ms(limit) }

// maxRPS is the highest ladder rate whose step meets limit, interpolated
// linearly in score towards the first step that misses it, so that a
// capacity between two steps reads between them. It reports false when the
// ladder's lowest step already misses the limit.
func maxRPS(steps []*outcome, limit time.Duration) (float64, bool) {
	lim := ms(limit)
	for j, s := range steps {
		if s.meets(limit) {
			continue
		}
		if j == 0 {
			return s.rate, false
		}
		prev := steps[j-1]
		lo, hi := prev.score(), s.score()
		frac := 0.0
		if !math.IsInf(hi, 1) {
			frac = (lim - lo) / (hi - lo)
		}
		return prev.rate + frac*(s.rate-prev.rate), true
	}
	return steps[len(steps)-1].rate, true
}
