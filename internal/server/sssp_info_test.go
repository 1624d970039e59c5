package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpcspanner"
	"mpcspanner/internal/server"
)

// TestInfoAdvertisesSSSP is the fleet-agreement contract of the row-fill
// engine: a daemon wired like cmd/oracled — Config.SSSP fed from
// Session.SSSP() — advertises the engine and its auto-tuned Δ on /v1/info,
// so an operator can assert every replica answers cold queries the same way.
func TestInfoAdvertisesSSSP(t *testing.T) {
	g := testGraph(t, 12, 4)
	s, err := mpcspanner.Serve(context.Background(), g, mpcspanner.WithExact())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	sssp := s.SSSP()
	ts := httptest.NewServer(server.New(server.Config{
		Backend: s, Graph: g,
		SSSP: &server.SSSPInfo{Engine: sssp.Engine, Delta: sssp.Delta},
	}).Handler())
	defer ts.Close()

	info := getInfo(t, ts.URL)
	if info.SSSP == nil {
		t.Fatal("/v1/info omitted the sssp block")
	}
	if info.SSSP.Engine != "delta-stepping" || info.SSSP.Delta != sssp.Delta || !(info.SSSP.Delta > 0) {
		t.Fatalf("sssp block drifted on the wire: %+v", info.SSSP)
	}

	// The client helper decodes the same block — the path oracled load and
	// fleet tooling read it through.
	cinfo, err := server.NewClient(ts.URL).Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cinfo.SSSP == nil || cinfo.SSSP.Engine != "delta-stepping" {
		t.Fatalf("client decoded sssp block %+v", cinfo.SSSP)
	}
}

// TestInfoOmitsSSSPWhenUnset pins the omitempty contract for bare backends
// (tests, non-session implementations) that expose no engine.
func TestInfoOmitsSSSPWhenUnset(t *testing.T) {
	g := testGraph(t, 10, 2)
	s := exactSession(t, g, nil, 1)
	ts := httptest.NewServer(server.New(server.Config{Backend: s, Graph: g}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["sssp"]; ok {
		t.Fatal("/v1/info carries an sssp block although none was configured")
	}
}
