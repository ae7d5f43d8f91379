package main

import (
	"sort"
	"sync"
	"time"
)

// span is one call into a layer's public function, recorded by the
// benchmark around that call (or, on serve, an interval a job document
// reports). Start and End are milliseconds since the recorder's origin;
// Self is the duration minus the part its children cover.
type span struct {
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Parent int     `json:"parent"` // index of the parent span; -1 for a root
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps a run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay only a nil check.
type recorder struct {
	origin time.Time

	mu    sync.Mutex // serve clients record from two goroutines
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return ms(t.Sub(r.origin)) }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name, job string, parent int) int {
	if r == nil {
		return -1
	}
	now := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := r.at(time.Now())
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// label sets the job id of a span opened before the id was known.
func (r *recorder) label(id int, job string) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].Job = job
	r.mu.Unlock()
}

// interval records a span whose bounds were measured elsewhere.
func (r *recorder) interval(name, job string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: r.at(start), End: r.at(end)})
	return len(r.spans) - 1
}

// finish computes every span's self time and returns the spans.
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].dur() - covered(r.spans[i], r.spans, kids[i])
	}
	return r.spans
}

// covered returns how much of parent's interval the union of its
// children's intervals covers (children may overlap: a job document's
// queue and run intervals overlap the client's submit and follow calls).
func covered(parent span, spans []span, kids []int) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerTimes returns, per span name, the mean over job labels of each
// label's mean span duration and self time, in milliseconds. table1 and
// scale label a job's spans with its design, so every design weighs the
// same however often it repeats, and the layers add up to the seconds
// per job behind jobs_per_s.
func layerTimes(spans []span) (dur, self map[string]float64) {
	type key struct{ name, job string }
	durs := map[key][]float64{}
	selfs := map[key][]float64{}
	for _, s := range spans {
		k := key{s.Name, s.Job}
		durs[k] = append(durs[k], s.dur())
		selfs[k] = append(selfs[k], s.Self)
	}
	perDur, perSelf := map[string][]float64{}, map[string][]float64{}
	for k := range durs {
		perDur[k.name] = append(perDur[k.name], mean(durs[k]))
		perSelf[k.name] = append(perSelf[k.name], mean(selfs[k]))
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name := range perDur {
		dur[name] = mean(perDur[name])
		self[name] = mean(perSelf[name])
	}
	return dur, self
}
