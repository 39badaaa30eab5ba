package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// TestPoolEncodingCompat pins the compatibility contract of the
// pool_encoding request field: "", "flat" and "compressed" are all
// accepted, all run on the one (flat) pool layout — bit-identical blockers
// and spreads on a reuse_samples solve, one shared cached pool, and the
// imind_solve_seconds encoding label reads "flat" for every one of them —
// and any other value is still rejected with 400.
func TestPoolEncodingCompat(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)

	encodings := []string{"", "flat", "compressed"}
	var want SolveResponse
	for i, enc := range encodings {
		req := SolveRequest{
			Seeds: []int{2, 5}, Budget: 4, Algorithm: "greedy-replace",
			Theta: 200, Seed: 9, ReuseSamples: true, EvalRounds: 300,
			PoolEncoding: enc,
		}
		var got SolveResponse
		if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &got); code != http.StatusOK {
			t.Fatalf("pool_encoding %q: status %d, body %s", enc, code, body)
		}
		if got.SpreadBefore == nil || got.SpreadAfter == nil {
			t.Fatalf("pool_encoding %q: spreads missing from %+v", enc, got)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.Blockers, want.Blockers) {
			t.Errorf("pool_encoding %q: blockers %v, want %v", enc, got.Blockers, want.Blockers)
		}
		if *got.SpreadBefore != *want.SpreadBefore || *got.SpreadAfter != *want.SpreadAfter {
			t.Errorf("pool_encoding %q: spreads %v/%v, want %v/%v", enc,
				*got.SpreadBefore, *got.SpreadAfter, *want.SpreadBefore, *want.SpreadAfter)
		}
	}
	if st := srv.Sessions().Stats(); st.PoolBuilds != 1 || st.PoolReuses != int64(len(encodings)-1) {
		t.Errorf("pool builds/reuses = %d/%d, want 1/%d: every encoding must share one cached pool",
			st.PoolBuilds, st.PoolReuses, len(encodings)-1)
	}

	_, samples := scrapeMetrics(t, ts.URL)
	var flat float64
	for _, warm := range []string{"cold", "warm"} {
		flat += samples[`imind_solve_seconds_count{model="IC",warm="`+warm+`",encoding="flat"}`]
	}
	if total := sumSamples(samples, "imind_solve_seconds_count"); flat != float64(len(encodings)) || total != flat {
		t.Errorf("imind_solve_seconds: %v solves labeled encoding=flat of %v total, want all %d", flat, total, len(encodings))
	}

	bad := SolveRequest{Seeds: []int{2}, Budget: 1, Theta: 50, ReuseSamples: true, PoolEncoding: "zstd"}
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", bad, nil); code != http.StatusBadRequest {
		t.Errorf("unknown pool_encoding: status %d (body %s), want 400", code, body)
	}
}

// FuzzSolveRequest posts arbitrary bytes as a solve body against a tiny
// registered graph, with θ and Monte-Carlo rounds clamped small so every
// input stays cheap. Whatever the body, the server must not fail with a
// 5xx, must answer with valid JSON, and every 2xx must carry a valid
// blocker set: distinct, in range, at most the budget, and no seed.
//
//	go test -run '^$' -fuzz FuzzSolveRequest -fuzztime 30s ./internal/service
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"seeds":[1,2],"budget":3,"reuse_samples":true}`,
		`{"seeds":[1,2],"budget":3,"reuse_samples":true,"pool_encoding":"flat"}`,
		`{"seeds":[1,2],"budget":3,"reuse_samples":true,"pool_encoding":"compressed"}`,
		`{"seeds":[1,2],"budget":3,"reuse_samples":true,"pool_encoding":"varint"}`,
		`{"seeds":[1,2],"budget":3,"pool_encoding":"compressed"}`,
		`{"seeds":[1],"budget":2,"theta":-5}`,
		`{"seeds":[1],"budget":2,"theta":1000000000,"reuse_samples":true}`,
		`{"seeds":[1],"budget":-1}`,
		`{"seeds":[1],"budget":1000000}`,
		`{"seeds":[3],"budget":2,"algorithm":"advanced-greedy","model":"LT","eval_rounds":-1}`,
		`{"seeds":[3],"budget":2,"algorithm":"baseline-greedy","mcs_rounds":999999}`,
		`{"num_seeds":2,"budget":2,"algorithm":"outdegree","seed":7}`,
		`{"seeds":[-1],"budget":1}`,
		`{"seeds":[0,0,0],"budget":2,"workers":64,"timeout_ms":1}`,
		`{"budget":1,"trace":true}`,
		`{}`,
		`[]`,
		`null`,
		`{"budget":`,
	} {
		f.Add([]byte(seed))
	}

	const n = 24
	srv := New(Config{
		SolveWorkers: 1, MaxTheta: 64, MaxEvalRounds: 64,
		DefaultTimeout: 5 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	h := srv.Handler()
	reg, _ := json.Marshal(RegisterGraphRequest{
		Name: "tiny", Generator: "erdos-renyi", N: n, M: 72, Directed: true, Seed: 1,
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs", bytes.NewReader(reg)))
	if rec.Code != http.StatusCreated {
		f.Fatalf("register tiny graph: status %d, body %s", rec.Code, rec.Body.String())
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs/tiny/solve", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for body %q: response is not JSON: %q", rec.Code, body, rec.Body.String())
		}
		if rec.Code >= 300 {
			return
		}
		// The handler decodes the first JSON value of the body the same
		// way, so a 2xx means this decode succeeds and sees its budget.
		var req SolveRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("status %d for a body the handler should have rejected (%v): %q", rec.Code, err, body)
		}
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("2xx body does not decode as a SolveResponse: %v", err)
		}
		if len(resp.Blockers) > req.Budget {
			t.Fatalf("%d blockers exceed budget %d: %v", len(resp.Blockers), req.Budget, resp.Blockers)
		}
		isSeed := make(map[int]bool, len(resp.Seeds))
		for _, s := range resp.Seeds {
			isSeed[s] = true
		}
		seen := make(map[int]bool, len(resp.Blockers))
		for _, b := range resp.Blockers {
			switch {
			case b < 0 || b >= n:
				t.Fatalf("blocker %d out of range [0,%d)", b, n)
			case seen[b]:
				t.Fatalf("blocker %d repeated in %v", b, resp.Blockers)
			case isSeed[b]:
				t.Fatalf("blocker %d is a seed (seeds %v)", b, resp.Seeds)
			}
			seen[b] = true
		}
	})
}
