package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mpcspanner"
	"mpcspanner/internal/artifact"
	"mpcspanner/internal/server"
)

// getInfo fetches and decodes /v1/info.
func getInfo(t *testing.T, url string) server.Info {
	t.Helper()
	resp, err := http.Get(url + "/v1/info")
	if err != nil {
		t.Fatalf("GET /v1/info: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/info: status %d", resp.StatusCode)
	}
	var info server.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding /v1/info: %v", err)
	}
	return info
}

// TestInfoArtifactIdentity is the fleet-identity contract the CI smoke job
// asserts: a replica started from a saved artifact reports the file's
// fingerprint and checksum on /v1/info, byte-for-byte what the saver
// printed.
func TestInfoArtifactIdentity(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 12, 4)
	path := filepath.Join(t.TempDir(), "spanner.art")
	res, err := mpcspanner.Build(ctx, g,
		mpcspanner.WithAlgorithm(mpcspanner.AlgoMPC), mpcspanner.WithK(4),
		mpcspanner.WithSeed(11))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := res.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	a, err := mpcspanner.Open(ctx, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Close()
	s, err := mpcspanner.Serve(ctx, nil, mpcspanner.WithArtifact(a))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}

	fp := a.Fingerprint()
	ts := httptest.NewServer(server.New(server.Config{
		Backend: s,
		Graph:   s.Served(),
		Artifact: &server.ArtifactInfo{
			Algorithm: fp.Algorithm, Seed: fp.Seed, K: fp.K, T: fp.T,
			Gamma: fp.Gamma, Workers: fp.Workers,
			Checksum: a.Checksum(), Rows: artifact.RowsOf(a).Len(), Mapped: a.Mapped(),
		},
	}).Handler())
	defer ts.Close()

	info := getInfo(t, ts.URL)
	if info.Artifact == nil {
		t.Fatal("/v1/info omitted the artifact block for an artifact-served replica")
	}
	art := info.Artifact
	if art.Checksum != a.Checksum() {
		t.Errorf("checksum: got %s, want %s", art.Checksum, a.Checksum())
	}
	if art.Algorithm != string(mpcspanner.AlgoMPC) || art.Seed != 11 || art.K != 4 {
		t.Errorf("fingerprint drifted on the wire: %+v", art)
	}
	if art.Mapped != a.Mapped() {
		t.Errorf("mapped: got %v, want %v", art.Mapped, a.Mapped())
	}
	if info.N != s.Served().N() || info.M != s.Served().M() {
		t.Errorf("graph shape: got (%d,%d), want (%d,%d)", info.N, info.M,
			s.Served().N(), s.Served().M())
	}
}

// TestInfoOmitsArtifactWhenBuiltInProcess pins the omitempty contract: a
// replica that built in-process carries no artifact block at all.
func TestInfoOmitsArtifactWhenBuiltInProcess(t *testing.T) {
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
	if _, ok := raw["artifact"]; ok {
		t.Fatal("/v1/info carries an artifact block for an in-process replica")
	}
}
