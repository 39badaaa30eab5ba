package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"github.com/imin-dev/imin/internal/service"
)

// graphName is the name the serving graph is registered under.
const graphName = "serve"

// client drives one daemon over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON body into out. The latency
// runs from sending the request to reading the last byte of the response.
func (c *client) do(method, path, ctype string, body []byte, out any) (int, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, lat, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, lat, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, lat, nil
}

// register registers the staged graph file, retrying only while the
// freshly started daemon has not bound its port yet. It refuses a daemon
// that already holds a graph: that one is not the daemon this run started.
func (c *client) register(deadline time.Time) error {
	for {
		var list []service.GraphInfo
		_, _, err := c.do(http.MethodGet, "/graphs", "", nil, &list)
		if errors.Is(err, syscall.ECONNREFUSED) && time.Now().Before(deadline) {
			continue
		}
		if err != nil {
			return err
		}
		if len(list) != 0 {
			return fmt.Errorf("daemon at %s already holds %d graphs: not a fresh daemon", c.base, len(list))
		}
		break
	}
	body, _ := json.Marshal(service.RegisterGraphRequest{Name: graphName, Path: "serve.bin", ProbModel: "keep"})
	var info service.GraphInfo
	if _, _, err := c.do(http.MethodPost, "/graphs", "application/json", body, &info); err != nil {
		return err
	}
	if info.Vertices != graphN {
		return fmt.Errorf("registered graph has %d vertices, want %d", info.Vertices, graphN)
	}
	return nil
}

func (c *client) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	_, _, err := c.do(http.MethodGet, "/stats", "", nil, &st)
	return st, err
}

// result is the outcome of one request.
type result struct {
	status  int
	latency time.Duration
	err     error
	solve   *service.SolveResponse
	mutate  *service.MutateResponse
}

func solveRequest(w workload, o op) service.SolveRequest {
	return service.SolveRequest{
		Seeds:        o.seeds,
		Budget:       budget,
		Algorithm:    algorithm,
		Model:        model,
		Theta:        theta,
		EvalRounds:   evalRounds,
		Seed:         o.seed,
		Workers:      solveWorkers,
		ReuseSamples: w.reuse,
	}
}

// run sends one op and returns its outcome; a failure is recorded, never
// fatal, so it counts in failed_pct instead of ending the run.
func (c *client) run(w workload, o op) result {
	var r result
	switch o.kind {
	case opSolve:
		body, _ := json.Marshal(solveRequest(w, o))
		r.solve = &service.SolveResponse{}
		r.status, r.latency, r.err = c.do(http.MethodPost, "/graphs/"+graphName+"/solve", "application/json", body, r.solve)
	case opMutate:
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, m := range o.batch {
			enc.Encode(m)
		}
		r.mutate = &service.MutateResponse{}
		r.status, r.latency, r.err = c.do(http.MethodPost, "/graphs/"+graphName+"/mutate", "application/x-ndjson", buf.Bytes(), r.mutate)
	}
	return r
}
