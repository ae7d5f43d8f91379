package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"columbas/internal/core"
	"columbas/internal/netlist"
)

// tinyEditedSrc is tinySrc one unit-edit away: an extra chamber hung off
// c1. Structural distance 2 (one unit row, one net token) — well inside
// maxDeltaDistance, so a cached tinySrc design donates a warm hint.
const tinyEditedSrc = `design tiny
unit m1 mixer
unit c1 chamber
unit c2 chamber
connect in:a m1
connect m1 c1
connect c1 c2
connect c2 out:w
`

func mustParse(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDesignFPDistance(t *testing.T) {
	opt := core.DefaultOptions()
	base := newDesignFP(mustParse(t, tinySrc), opt)

	// Same netlist, same options: distance 0 both ways.
	if d := base.distance(newDesignFP(mustParse(t, tinySrc), opt)); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}

	// Same netlist, different objective weights: structural distance stays
	// 0 (weights are excluded from optHash), weight distance is the L1 gap.
	wopt := opt
	wopt.Layout.Alpha += 2
	wopt.Layout.Kappa += 0.5
	wfp := newDesignFP(mustParse(t, tinySrc), wopt)
	if d := base.distance(wfp); d != 0 {
		t.Fatalf("weight-only distance = %d, want 0", d)
	}
	if w := base.weightDistance(wfp); w != 2.5 {
		t.Fatalf("weightDistance = %g, want 2.5", w)
	}

	// One unit edit: small positive distance within the admission bound.
	efp := newDesignFP(mustParse(t, tinyEditedSrc), opt)
	d := base.distance(efp)
	if d <= 0 || d > maxDeltaDistance {
		t.Fatalf("one-edit distance = %d, want in (0, %d]", d, maxDeltaDistance)
	}
	if d2 := efp.distance(base); d2 != d {
		t.Fatalf("distance asymmetric: %d vs %d", d, d2)
	}

	// Model-shaping option mismatch: incompatible, reported as -1.
	copt := opt
	copt.Layout.NoPresolve = true
	if d := base.distance(newDesignFP(mustParse(t, tinySrc), copt)); d != -1 {
		t.Fatalf("optHash-mismatch distance = %d, want -1", d)
	}
	mn := mustParse(t, tinySrc)
	mn.Muxes = 2
	if d := base.distance(newDesignFP(mn, opt)); d != -1 {
		t.Fatalf("mux-mismatch distance = %d, want -1", d)
	}

	// An unrelated design differs in nearly every token — past the bound.
	big := "design big\n"
	for i := 0; i < 12; i++ {
		big += fmt.Sprintf("unit u%d mixer\nconnect in:i%d u%d\nconnect u%d out:o%d\n", i, i, i, i, i)
	}
	if d := base.distance(newDesignFP(mustParse(t, big), opt)); d <= maxDeltaDistance {
		t.Fatalf("unrelated-design distance = %d, want > %d", d, maxDeltaDistance)
	}
}

// TestSimilarityDonorWarmStart drives the organic near-miss path end to
// end: a cached design one edit away is found by the similarity index on
// the exact-key miss, and the solve runs with its warm hint (visible in
// the delta counters — per round with a hint exactly one of warm-starts
// and fallbacks increments).
func TestSimilarityDonorWarmStart(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1, CacheEntries: 16})

	resp, body := post(t, ts.URL+"/v1/synthesize", tinySrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve: status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/synthesize", tinyEditedSrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edited solve: status %d: %s", resp.StatusCode, body)
	}
	if c := resp.Header.Get("X-Columbas-Cache"); c != "miss" {
		t.Fatalf("edited design hit the exact cache (%q) — test is vacuous", c)
	}

	st := getStats(t, ts.URL)
	if st.Cache.SimilarityHits != 1 {
		t.Fatalf("similarity_hits = %d, want 1 (misses %d)",
			st.Cache.SimilarityHits, st.Cache.SimilarityMisses)
	}
	if got := st.Solver.DeltaWarmStarts + st.Solver.DeltaFallbacks; got == 0 {
		t.Fatal("solve had a donor hint but neither delta counter moved")
	}
	if st.Solver.IncumbentFromHint > st.Solver.DeltaWarmStarts {
		t.Fatalf("incumbent_from_hint %d > delta_warm_starts %d",
			st.Solver.IncumbentFromHint, st.Solver.DeltaWarmStarts)
	}
}

// TestFinishedJobDropsDonorHint pins that a similarity-hit job lets go
// of its donor hint once it is terminal: the hint is a private copy of
// the donor's geometry, and the job resource outlives the solve by its
// whole TTL. The warm start it fed is still counted. The edit moves the
// outlet to a fresh port, which the donor's layout warm-starts.
func TestFinishedJobDropsDonorHint(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1, CacheEntries: 16})
	reconnected := strings.Replace(tinySrc, "out:w", "out:r1", 1)
	for i, src := range []string{tinySrc, reconnected} {
		resp, doc := postJob(t, ts.URL, map[string]any{
			"schema":  JobRequestSchema,
			"netlist": src,
			"options": map[string]any{},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		if final := waitTerminal(t, ts.URL, doc.ID); final.State != JobSucceeded || final.Cache != "miss" {
			t.Fatalf("submit %d: final state %s, cache %q", i, final.State, final.Cache)
		}
		j, ok := s.jobs.get(doc.ID)
		if !ok {
			t.Fatalf("submit %d: job %s not stored", i, doc.ID)
		}
		j.mu.Lock()
		hint := j.opt.Warm
		j.mu.Unlock()
		if hint != nil {
			t.Fatalf("submit %d: terminal job still holds its donor hint", i)
		}
	}
	st := getStats(t, ts.URL)
	if st.Cache.SimilarityHits != 1 {
		t.Fatalf("similarity_hits = %d, want 1", st.Cache.SimilarityHits)
	}
	if st.Solver.DeltaWarmStarts == 0 {
		t.Fatalf("delta_warm_starts = 0 (fallbacks %d): the hint fed no warm start",
			st.Solver.DeltaFallbacks)
	}
}

// TestSimilarityDisabledByNoDelta checks the -no-delta ablation: the
// similarity index is never consulted and the delta counters stay zero.
func TestSimilarityDisabledByNoDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1, CacheEntries: 16, NoDelta: true})

	for _, src := range []string{tinySrc, tinyEditedSrc} {
		resp, body := post(t, ts.URL+"/v1/synthesize", src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	st := getStats(t, ts.URL)
	if st.Cache.SimilarityHits != 0 || st.Cache.SimilarityMisses != 0 {
		t.Fatalf("similarity index consulted under -no-delta: hits %d misses %d",
			st.Cache.SimilarityHits, st.Cache.SimilarityMisses)
	}
	if st.Solver.DeltaWarmStarts != 0 || st.Solver.DeltaFallbacks != 0 {
		t.Fatalf("delta counters moved under -no-delta: %+v", st.Solver)
	}
}

func postExplore(t *testing.T, url string, er ExploreRequest) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(er)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/explore", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestExploreSweep runs a 2×2 (α, β) grid over the tiny netlist and
// checks the columbas-explore/v1 contract: every cell a real succeeded
// job, the first cold, every later cell chained to a finished donor, and
// a consistent Pareto frontier.
func TestExploreSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1, CacheEntries: 16})

	resp, body := postExplore(t, ts.URL, ExploreRequest{
		Schema:  ExploreRequestSchema,
		Netlist: tinySrc,
		Sweep:   ExploreSweep{Alpha: []float64{1, 2}, Beta: []float64{1, 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc ExploreDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if doc.Schema != ExploreSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(doc.Cells))
	}
	for i, c := range doc.Cells {
		if c.State != JobSucceeded {
			t.Fatalf("cell %d state = %q: %+v", i, c.State, c.Error)
		}
		if c.Metrics == nil || c.Metrics.WidthMM <= 0 {
			t.Fatalf("cell %d has no metrics", i)
		}
		if c.Job == "" {
			t.Fatalf("cell %d has no job id", i)
		}
		// Each cell is a real job resource.
		jr, err := http.Get(ts.URL + "/v2/jobs/" + c.Job)
		if err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if jr.StatusCode != http.StatusOK {
			t.Fatalf("cell %d job GET: status %d", i, jr.StatusCode)
		}
		if i == 0 && c.Donor != -1 {
			t.Fatalf("first cell has donor %d, want -1 (cold)", c.Donor)
		}
		if i > 0 && (c.Donor < 0 || c.Donor >= i) {
			t.Fatalf("cell %d donor = %d, want a finished predecessor", i, c.Donor)
		}
	}
	if len(doc.Frontier) == 0 || len(doc.Frontier) > 4 {
		t.Fatalf("frontier = %v", doc.Frontier)
	}
	for _, i := range doc.Frontier {
		if i < 0 || i >= len(doc.Cells) || doc.Cells[i].State != JobSucceeded {
			t.Fatalf("frontier index %d invalid", i)
		}
	}
	if doc.WallMS <= 0 || doc.TotalSolveMS <= 0 {
		t.Fatalf("walls: sweep %g, solve %g", doc.WallMS, doc.TotalSolveMS)
	}

	st := getStats(t, ts.URL)
	if st.Solver.DeltaWarmStarts+st.Solver.DeltaFallbacks == 0 {
		t.Fatal("sweep chained donors but no delta counter moved")
	}
}

func TestExploreBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})

	tooWide := make([]float64, maxExploreCells+1)
	for i := range tooWide {
		tooWide[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name string
		er   ExploreRequest
		want int
	}{
		{"bad schema", ExploreRequest{Schema: "bogus/v9", Netlist: tinySrc}, http.StatusBadRequest},
		{"negative sweep value", ExploreRequest{Netlist: tinySrc,
			Sweep: ExploreSweep{Alpha: []float64{-1}}}, http.StatusBadRequest},
		{"netlist parse error", ExploreRequest{Netlist: "not a netlist"}, http.StatusBadRequest},
		{"grid too large", ExploreRequest{Netlist: tinySrc,
			Sweep: ExploreSweep{Alpha: tooWide}}, http.StatusBadRequest},
		{"semantic error", ExploreRequest{Netlist: "design d\nunit m1 mixer\n"},
			http.StatusUnprocessableEntity},
	} {
		resp, body := postExplore(t, ts.URL, tc.er)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// Unknown top-level fields are rejected, not ignored.
	resp, err := http.Post(ts.URL+"/v2/explore", "application/json",
		bytes.NewReader([]byte(`{"netlist": "x", "surprise": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}
